package vm

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/oskit"
)

func TestMemoryPagesOnFirstWrite(t *testing.T) {
	mem := newMemory(3*pageWords + 5)
	if len(mem.pages) != 4 {
		t.Fatalf("%d pages for 3 pages + 5 words, want 4", len(mem.pages))
	}
	if got := mem.load(pageWords + 7); got != 0 {
		t.Errorf("load from an unwritten page = %d, want 0", got)
	}
	mem.read(make([]int64, 2*pageWords), 1)
	for i, p := range mem.pages {
		if p != nil {
			t.Errorf("page %d allocated by loads alone", i)
		}
	}
	mem.store(2*pageWords-1, 42)
	for i, p := range mem.pages {
		if (p != nil) != (i == 1) {
			t.Errorf("page %d allocated = %v after one store into page 1", i, p != nil)
		}
	}
	if got := mem.load(2*pageWords - 1); got != 42 {
		t.Errorf("load after store = %d, want 42", got)
	}
	if got := mem.load(2 * pageWords); got != 0 {
		t.Errorf("first word of the next page = %d, want 0", got)
	}
}

func TestMemoryCopiesStraddlePages(t *testing.T) {
	mem := newMemory(4 * pageWords)
	// src covers the last 3 words of page 0, all of page 1 and 5 words
	// of page 2.
	src := make([]int64, pageWords+8)
	for i := range src {
		src[i] = int64(i + 1)
	}
	base := int64(pageWords - 3)
	mem.write(base, src)
	got := make([]int64, len(src))
	mem.read(got, base)
	if !slices.Equal(got, src) {
		t.Fatalf("read back differs from what was written")
	}
	if mem.pages[3] != nil {
		t.Errorf("write allocated a page it does not touch")
	}
	// A read past the written range into an unwritten page clears dst.
	tail := []int64{9, 9, 9, 9}
	mem.read(tail, 3*pageWords-2)
	if !slices.Equal(tail, []int64{0, 0, 0, 0}) {
		t.Errorf("read of unwritten words = %v, want zeros", tail)
	}
}

func TestUnwrittenWordsReadZero(t *testing.T) {
	// Past heapTop, across the page boundary at 2*pageWords (the store
	// lands on the word before it), and on a fresh thread's stack beyond
	// its frame.
	r := runSrc(t, fmt.Sprintf(`
int seen;
void child(int x) {
    int *p = &x;
    int s = 0;
    for (int i = 64; i < 128; i++) { s += p[i]; }
    seen = s + 1;
}
int main(void) {
    int *h = malloc(4);
    h[3] = 5;
    print(h[4] + h[1000]);
    int *edge = %d;
    edge[0] = 7;
    print(edge[0]);
    print(edge[1]);
    int t = spawn(child, 0);
    join(t);
    print(seen);
    return 0;
}`, 2*pageWords-1), 1)
	if want := "0\n7\n0\n1\n"; string(r.Output) != want {
		t.Errorf("output %q, want %q", r.Output, want)
	}
}

func TestMemTopBoundary(t *testing.T) {
	small := Config{HeapWords: 64, StackWords: 64, MaxThreads: 2}
	p := compileSrc(t, `
int main(void) {
    int *p = 207;
    print(*p);
    *p = 5;
    print(*p);
    return 0;
}`)
	if top := p.HeapBase + small.HeapWords + int64(small.MaxThreads)*small.StackWords; top != 208 {
		t.Fatalf("memTop = %d, want 208 (TestRuntimeErrors faults at 208)", top)
	}
	small.Inputs = LiveInputs{OS: oskit.NewWorld(1)}
	r := Run(p, small)
	if r.Err != nil {
		t.Fatalf("load/store at memTop-1: %v", r.Err)
	}
	if string(r.Output) != "0\n5\n" {
		t.Errorf("output %q, want 0 then 5", r.Output)
	}
}

func TestIOBuffersStraddlePageBoundary(t *testing.T) {
	// Each buffer is 12 words with the page boundary after its 6th word,
	// in pages no earlier instruction wrote: read and recv deposit into
	// them and write and send copy them back out. The last write reads a
	// straddling range nothing ever wrote.
	src := fmt.Sprintf(`
int main(void) {
    int *fbuf = %d;
    int fd = open(7);
    int n = read(fd, fbuf, 12);
    write(1, fbuf, n);
    int conn = accept(0);
    int *nbuf = %d;
    int m = recv(conn, nbuf, 12);
    send(conn, nbuf, m);
    write(2, %d, 12);
    return 0;
}`, 2*pageWords-6, 3*pageWords-6, 4*pageWords-6)
	file := oskit.SeqWords(12, 7)
	req := oskit.SeqWords(12, 8)
	w := oskit.NewWorld(1)
	w.AddFile(7, file)
	w.AddConn(100, req)
	r := Run(compileSrc(t, src), Config{Inputs: LiveInputs{OS: w}, Seed: 1})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if got := w.Written(1); !slices.Equal(got, file) {
		t.Errorf("read → write round trip: %v, want %v", got, file)
	}
	if got := w.Conns()[0].Sent; !slices.Equal(got, req) {
		t.Errorf("recv → send round trip: %v, want %v", got, req)
	}
	if got := w.Written(2); !slices.Equal(got, make([]int64, 12)) {
		t.Errorf("write of unwritten words: %v, want 12 zeros", got)
	}
}
