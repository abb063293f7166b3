package vm

// pageShift sets the page size of VM memory: 1<<12 words = 32 KiB.
const (
	pageShift = 12
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

type page [pageWords]int64

// memory is the VM's flat word-addressed address space. It is backed by
// fixed-size pages allocated on first write, so a run pays only for the
// pages it touches: a load from a page never written reads 0 without
// allocating. Callers bounds-check addresses (machine.validAddr) first.
type memory struct {
	pages []*page
}

func newMemory(words int64) memory {
	return memory{pages: make([]*page, (words+pageMask)>>pageShift)}
}

func (mem *memory) load(addr int64) int64 {
	if p := mem.pages[addr>>pageShift]; p != nil {
		return p[addr&pageMask]
	}
	return 0
}

func (mem *memory) store(addr, v int64) {
	p := mem.pages[addr>>pageShift]
	if p == nil {
		p = mem.alloc(addr)
	}
	p[addr&pageMask] = v
}

// alloc backs the page holding addr with a fresh zeroed page.
func (mem *memory) alloc(addr int64) *page {
	p := new(page)
	mem.pages[addr>>pageShift] = p
	return p
}

// read copies the len(dst) words starting at addr into dst.
func (mem *memory) read(dst []int64, addr int64) {
	for len(dst) > 0 {
		off := addr & pageMask
		n := min(int64(len(dst)), pageWords-off)
		if p := mem.pages[addr>>pageShift]; p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			clear(dst[:n])
		}
		dst, addr = dst[n:], addr+n
	}
}

// write copies src into memory starting at addr.
func (mem *memory) write(addr int64, src []int64) {
	for len(src) > 0 {
		off := addr & pageMask
		n := min(int64(len(src)), pageWords-off)
		p := mem.pages[addr>>pageShift]
		if p == nil {
			p = mem.alloc(addr)
		}
		copy(p[off:off+n], src[:n])
		src, addr = src[n:], addr+n
	}
}
