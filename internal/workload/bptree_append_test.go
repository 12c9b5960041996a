package workload

import (
	"fmt"
	"runtime"
	"testing"

	"astriflash/internal/mem"
)

// sameBPTree reports the first difference between two trees' shapes: node
// addresses, keys, values, leaf chains, height and size.
func sameBPTree(a, b *BPTree) string {
	if a.Height() != b.Height() || a.Size() != b.Size() {
		return fmt.Sprintf("height/size %d/%d vs %d/%d", a.Height(), a.Size(), b.Height(), b.Size())
	}
	return sameBPNode(a.root, b.root, "root")
}

func sameBPNode(a, b *bpNode, path string) string {
	switch {
	case a.addr != b.addr || a.leaf != b.leaf:
		return fmt.Sprintf("%s: addr/leaf %v/%v vs %v/%v", path, a.addr, a.leaf, b.addr, b.leaf)
	case fmt.Sprint(a.keys) != fmt.Sprint(b.keys):
		return fmt.Sprintf("%s: keys %v vs %v", path, a.keys, b.keys)
	case fmt.Sprint(a.vals) != fmt.Sprint(b.vals):
		return fmt.Sprintf("%s: vals %v vs %v", path, a.vals, b.vals)
	case (a.next == nil) != (b.next == nil) || a.next != nil && a.next.addr != b.next.addr:
		return path + ": leaf chain differs"
	case len(a.children) != len(b.children):
		return fmt.Sprintf("%s: %d vs %d children", path, len(a.children), len(b.children))
	}
	for i := range a.children {
		if msg := sameBPNode(a.children[i], b.children[i], fmt.Sprintf("%s/%d", path, i)); msg != "" {
			return msg
		}
	}
	return ""
}

// buildPair fills two trees sharing one arena the way NewTATP fills its
// tables: per step, one key into the first and two into the second, by
// Append or by traced Insert.
func buildPair(fanout int, n uint64, appended bool) (*BPTree, *BPTree) {
	arena := mem.NewArena(0, 64<<20)
	a, b := NewBPTree(arena, fanout), NewBPTree(arena, fanout)
	sink := NewTracer(1)
	for i := uint64(0); i < n; i++ {
		if appended {
			a.Append(3*i+1, i)
			b.Append(4*i, 2*i)
			b.Append(4*i+1, 2*i+1)
		} else {
			a.Insert(3*i+1, i, sink)
			b.Insert(4*i, 2*i, sink)
			b.Insert(4*i+1, 2*i+1, sink)
		}
		sink.Discard()
	}
	return a, b
}

func TestBPTreeAppendMatchesInsert(t *testing.T) {
	for _, c := range []struct {
		fanout int
		n      uint64
	}{
		{4, 0}, {4, 1}, {4, 4}, {4, 5}, {4, 500},
		{256, 0}, {256, 1}, {256, 256}, {256, 257}, {256, 40000},
	} {
		ia, ib := buildPair(c.fanout, c.n, false)
		aa, ab := buildPair(c.fanout, c.n, true)
		for i, pair := range [][2]*BPTree{{ia, aa}, {ib, ab}} {
			if msg := sameBPTree(pair[0], pair[1]); msg != "" {
				t.Fatalf("fanout %d, %d steps, tree %d: %s", c.fanout, c.n, i, msg)
			}
			if msg := pair[1].CheckInvariants(); msg != "" {
				t.Fatalf("fanout %d, %d steps, tree %d: %s", c.fanout, c.n, i, msg)
			}
		}
		if c.n >= 500 && aa.Height() < 3 {
			t.Fatalf("fanout %d, %d keys: height %d, want 3+ levels", c.fanout, c.n, aa.Height())
		}
	}
}

func TestBPTreeAppendRejectsKeyNotAboveMax(t *testing.T) {
	for _, key := range []uint64{0, 5, 10} {
		tree := NewBPTree(testArena(), 4)
		for k := uint64(1); k <= 10; k++ {
			tree.Append(k, k)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Append(%d) after max key 10 did not panic", key)
				}
			}()
			tree.Append(key, 0)
		}()
	}
}

// TestBPTreeInsertIntoPackedNodes writes into every leaf and internal node
// an ascending build packed: a packed node that wrote in place past its
// own length would overwrite its neighbour's keys.
func TestBPTreeInsertIntoPackedNodes(t *testing.T) {
	tree := NewBPTree(testArena(), 4)
	want := map[uint64]uint64{}
	for i := uint64(0); i < 400; i++ {
		tree.Append(10*i, i)
		want[10*i] = i
	}
	if tree.Height() < 4 {
		t.Fatalf("height %d: too few packed internal levels", tree.Height())
	}
	tr := NewTracer(1)
	// Odd multiples of 5 land between stored keys in every leaf; three
	// per gap force splits that climb through packed internal nodes.
	for _, off := range []uint64{5, 7, 3} {
		for i := uint64(0); i < 400; i += 2 {
			tree.Insert(10*i+off, 1000+i, tr)
			want[10*i+off] = 1000 + i
		}
	}
	for i := uint64(1); i < 400; i += 2 {
		if !tree.Update(10*i, 2000+i, tr) {
			t.Fatalf("Update(%d) missed a stored key", 10*i)
		}
		want[10*i] = 2000 + i
	}
	if msg := tree.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if tree.Size() != uint64(len(want)) {
		t.Fatalf("size %d, want %d", tree.Size(), len(want))
	}
	for k, v := range want {
		if got, ok := tree.Get(k, tr); !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v, want %d", k, got, ok, v)
		}
	}
}

// tatpHostBytesPerDatasetByte is the live heap NewTATP holds after a GC,
// over the dataset size.
func tatpHostBytesPerDatasetByte(datasetBytes uint64) float64 {
	cfg := DefaultConfig()
	cfg.DatasetBytes = datasetBytes
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := NewTATP(cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(datasetBytes)
}

// TestTATPHostBytesPerDatasetByte gates the deterministic host memory of
// an ascending TATP build: one packed key and value per entry, about 0.45
// host bytes per dataset byte. It must not run in parallel with other
// tests, whose allocations would land in the heap delta.
func TestTATPHostBytesPerDatasetByte(t *testing.T) {
	if got := tatpHostBytesPerDatasetByte(32 << 20); got > 0.6 {
		t.Fatalf("NewTATP at 32 MB holds %.3f host bytes per dataset byte, want <= 0.6", got)
	}
}

func BenchmarkTATPBuild(b *testing.B) {
	cfg := DefaultConfig()
	cfg.DatasetBytes = 32 << 20
	for i := 0; i < b.N; i++ {
		NewTATP(cfg)
	}
	b.StopTimer()
	b.ReportMetric(tatpHostBytesPerDatasetByte(cfg.DatasetBytes), "host-B/dataset-B")
}
