package trace

// The checkers' per-key state (shadow cells by word address, sync-object
// clocks by ID) lives in tables paged like VM memory
// (internal/vm/memory.go): a key in [0, pagedKeys) finds its cell by
// shift and mask through a fixed directory of spans, each span a
// directory of pages. Spans and pages are allocated zeroed on first
// touch, so a checker pays only for the regions a run touches: the
// globals, the heap and one span per thread stack, never the gaps
// between them. Every other key — negative, at or past pagedKeys — is a
// valid program value the VM never emits as an address, and is kept in
// a fallback map.
const (
	pageShift = 8  // 256 cells per page
	spanShift = 16 // 256 pages per span
	pagedKeys = 1 << 24

	pageCells = 1 << pageShift
	spanPages = 1 << (spanShift - pageShift)
	dirSpans  = pagedKeys >> spanShift
)

// table maps int64 keys to cells of type T. The zero value is an empty
// table, and a cell never touched reads as T's zero value, so the zero
// value of T must be the fresh state. Cell pointers stay valid for the
// table's lifetime.
type table[T any] struct {
	dir   [dirSpans]*[spanPages]*[pageCells]T
	other map[int64]*T // keys outside [0, pagedKeys)
}

// at returns key k's cell, allocating its span and page on first touch.
func (t *table[T]) at(k int64) *T {
	u := uint64(k)
	if u >= pagedKeys {
		return t.atOther(k)
	}
	s := t.dir[u>>spanShift]
	if s == nil {
		s = new([spanPages]*[pageCells]T)
		t.dir[u>>spanShift] = s
	}
	p := s[u>>pageShift&(spanPages-1)]
	if p == nil {
		p = new([pageCells]T)
		s[u>>pageShift&(spanPages-1)] = p
	}
	return &p[u&(pageCells-1)]
}

// atOther is at for keys the directory does not cover.
func (t *table[T]) atOther(k int64) *T {
	c, ok := t.other[k]
	if !ok {
		if t.other == nil {
			t.other = make(map[int64]*T)
		}
		c = new(T)
		t.other[k] = c
	}
	return c
}
