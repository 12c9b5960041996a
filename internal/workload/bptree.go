package workload

import (
	"fmt"

	"astriflash/internal/mem"
)

// bpNode is one B+-tree node occupying a full 4 KB arena page, so each
// level of a traversal is one page access — the layout in-memory
// databases (Silo, Masstree's layer trees, the TATP/TPC-C indexes) use.
type bpNode struct {
	addr     mem.Addr
	leaf     bool
	keys     []uint64
	children []*bpNode // internal nodes
	vals     []uint64  // leaves
	next     *bpNode   // leaf chain for scans
}

// BPTree is a B+-tree with page-sized, arena-addressed nodes and traced
// traversals.
type BPTree struct {
	root   *bpNode
	arena  *mem.Arena
	fanout int
	size   uint64
	height int
	// slab is the current node chunk; nodes are handed out as pointers
	// into it (stable: a full chunk is replaced, never regrown), so bulk
	// loading a store costs one allocation per chunk instead of one per
	// node.
	slab []bpNode
	// words and kids are the current chunks of the packed arrays: Append
	// moves each node it finishes (the left half of a split) out of its
	// fanout+1 arrays into exactly-sized slices of these, so an
	// ascending build holds each key, value and child pointer once.
	words []uint64
	kids  []*bpNode
}

// packChunk is the element count of each new words or kids chunk.
const packChunk = 1 << 14

// NewBPTree returns an empty tree. Fanout is the max keys per node; 256
// eight-byte keys plus pointers fill a 4 KB page.
func NewBPTree(arena *mem.Arena, fanout int) *BPTree {
	if fanout < 4 {
		panic(fmt.Sprintf("workload: B+tree fanout %d too small", fanout))
	}
	t := &BPTree{arena: arena, fanout: fanout, height: 1}
	t.root = t.newNode(true)
	return t
}

// takeNode hands out the next node from the slab with the next arena page
// and no key or payload arrays.
func (t *BPTree) takeNode(leaf bool) *bpNode {
	if len(t.slab) == cap(t.slab) {
		t.slab = make([]bpNode, 0, 64)
	}
	t.slab = append(t.slab, bpNode{addr: t.arena.AllocPage(), leaf: leaf})
	return &t.slab[len(t.slab)-1]
}

// newNode is takeNode with empty key and payload arrays sized for a node
// still being filled (a node splits at fanout+1), so inserts never regrow
// them. A node Append has finished holds exactly-sized packed arrays
// instead; an Insert into one copies out on its first append.
func (t *BPTree) newNode(leaf bool) *bpNode {
	n := t.takeNode(leaf)
	n.keys = make([]uint64, 0, t.fanout+1)
	if leaf {
		n.vals = make([]uint64, 0, t.fanout+1)
	} else {
		n.children = make([]*bpNode, 0, t.fanout+2)
	}
	return n
}

// Size returns the number of stored keys.
func (t *BPTree) Size() uint64 { return t.size }

// Height returns the tree height (1 = root is a leaf).
func (t *BPTree) Height() int { return t.height }

// findChild returns the child index to descend for key: the smallest i
// with keys[i] > key. Hand-rolled with sort.Search's exact midpoint
// arithmetic — the closure-free loop is measurably faster on the
// per-access hot path and visits identical probe sequences.
func findChild(keys []uint64, key uint64) int {
	i, j := 0, len(keys)
	for i < j {
		h := int(uint(i+j) >> 1)
		if keys[h] <= key {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// lowerBound returns the smallest i with keys[i] >= key, with the same
// probe sequence as sort.Search.
func lowerBound(keys []uint64, key uint64) int {
	i, j := 0, len(keys)
	for i < j {
		h := int(uint(i+j) >> 1)
		if keys[h] < key {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// Get searches for key, tracing one access per level.
func (t *BPTree) Get(key uint64, tr *Tracer) (uint64, bool) {
	n := t.root
	for !n.leaf {
		tr.Touch(n.addr, false)
		n = n.children[findChild(n.keys, key)]
	}
	tr.Touch(n.addr, false)
	i := lowerBound(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true
	}
	return 0, false
}

// Update overwrites an existing key's value, tracing the path and the
// leaf write. It reports whether the key existed.
func (t *BPTree) Update(key, val uint64, tr *Tracer) bool {
	n := t.root
	for !n.leaf {
		tr.Touch(n.addr, false)
		n = n.children[findChild(n.keys, key)]
	}
	tr.Touch(n.addr, false)
	i := lowerBound(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		n.vals[i] = val
		tr.Touch(n.addr, true)
		return true
	}
	return false
}

// Scan reads up to count consecutive keys starting at key, tracing the
// descent and each leaf page touched. It returns the values read.
func (t *BPTree) Scan(key uint64, count int, tr *Tracer) []uint64 {
	n := t.root
	for !n.leaf {
		tr.Touch(n.addr, false)
		n = n.children[findChild(n.keys, key)]
	}
	var out []uint64
	i := lowerBound(n.keys, key)
	tr.Touch(n.addr, false)
	for n != nil && len(out) < count {
		for ; i < len(n.keys) && len(out) < count; i++ {
			out = append(out, n.vals[i])
		}
		n = n.next
		i = 0
		if n != nil && len(out) < count {
			tr.Touch(n.addr, false)
		}
	}
	return out
}

// Insert adds or overwrites key, tracing the path, leaf write, and any
// splits.
func (t *BPTree) Insert(key, val uint64, tr *Tracer) {
	promoted, newChild := t.insert(t.root, key, val, tr)
	if newChild != nil {
		tr.Touch(t.growRoot(promoted, newChild).addr, true)
	}
}

// growRoot puts a new root above the old one and its split-off sibling.
func (t *BPTree) growRoot(promoted uint64, right *bpNode) *bpNode {
	root := t.newNode(false)
	root.keys = append(root.keys, promoted)
	root.children = append(root.children, t.root, right)
	t.root = root
	t.height++
	return root
}

// Append adds key, which must exceed every stored key, without tracing:
// the build path for tables filled in ascending key order. It follows the
// rightmost spine with no search and splits at Insert's midpoints in
// Insert's order, so it takes arena pages exactly where Insert would and
// builds the same tree, node addresses included, even when several trees
// share an arena. The left half of a split never receives another
// appended key, so it is packed; the right half, the new rightmost node
// of its level, takes over the split node's arrays.
func (t *BPTree) Append(key, val uint64) {
	promoted, right := t.appendTo(t.root, key, val)
	if right != nil {
		t.growRoot(promoted, right)
	}
}

func (t *BPTree) appendTo(n *bpNode, key, val uint64) (uint64, *bpNode) {
	if n.leaf {
		if last := len(n.keys) - 1; last >= 0 && key <= n.keys[last] {
			panic(fmt.Sprintf("workload: B+tree Append of key %d not above max key %d", key, n.keys[last]))
		}
		n.keys = append(n.keys, key)
		n.vals = append(n.vals, val)
		t.size++
		if len(n.keys) <= t.fanout {
			return 0, nil
		}
		mid := len(n.keys) / 2
		right := t.takeNode(true)
		right.keys, n.keys = splitOff(n.keys, mid, mid, &t.words)
		right.vals, n.vals = splitOff(n.vals, mid, mid, &t.words)
		right.next, n.next = n.next, right
		return right.keys[0], right
	}
	promoted, child := t.appendTo(n.children[len(n.children)-1], key, val)
	if child == nil {
		return 0, nil
	}
	n.keys = append(n.keys, promoted)
	n.children = append(n.children, child)
	if len(n.keys) <= t.fanout {
		return 0, nil
	}
	mid := len(n.keys) / 2
	promoted = n.keys[mid]
	right := t.takeNode(false)
	right.keys, n.keys = splitOff(n.keys, mid+1, mid, &t.words)
	right.children, n.children = splitOff(n.children, mid+1, mid+1, &t.kids)
	return promoted, right
}

// splitOff splits a node array for Append. The head s[:keep] is copied to
// the end of the chunk *slab (a new chunk when it does not fit) as a slice
// with cap == len, so an append to it copies out rather than writing over
// the next packed node's elements. The tail s[from:] moves to the front
// of s's own array, which the right sibling keeps.
func splitOff[T any](s []T, from, keep int, slab *[]T) (tail, head []T) {
	c := *slab
	if cap(c)-len(c) < keep {
		c = make([]T, 0, max(packChunk, keep))
	}
	c = append(c, s[:keep]...)
	*slab = c
	return s[:copy(s, s[from:])], c[len(c)-keep : len(c) : len(c)]
}

// insert descends recursively; on split it returns the promoted separator
// key and the new right sibling.
func (t *BPTree) insert(n *bpNode, key, val uint64, tr *Tracer) (uint64, *bpNode) {
	tr.Touch(n.addr, false)
	if n.leaf {
		i := lowerBound(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] = val
			tr.Touch(n.addr, true)
			return 0, nil
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		t.size++
		tr.Touch(n.addr, true)
		if len(n.keys) <= t.fanout {
			return 0, nil
		}
		return t.splitLeaf(n, tr)
	}
	ci := findChild(n.keys, key)
	promoted, newChild := t.insert(n.children[ci], key, val, tr)
	if newChild == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = promoted
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = newChild
	tr.Touch(n.addr, true)
	if len(n.keys) <= t.fanout {
		return 0, nil
	}
	return t.splitInternal(n, tr)
}

func (t *BPTree) splitLeaf(n *bpNode, tr *Tracer) (uint64, *bpNode) {
	mid := len(n.keys) / 2
	right := t.newNode(true)
	right.keys = append(right.keys, n.keys[mid:]...)
	right.vals = append(right.vals, n.vals[mid:]...)
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	right.next = n.next
	n.next = right
	tr.Touch(n.addr, true)
	tr.Touch(right.addr, true)
	return right.keys[0], right
}

func (t *BPTree) splitInternal(n *bpNode, tr *Tracer) (uint64, *bpNode) {
	mid := len(n.keys) / 2
	promoted := n.keys[mid]
	right := t.newNode(false)
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	tr.Touch(n.addr, true)
	tr.Touch(right.addr, true)
	return promoted, right
}

// CheckInvariants validates sortedness, fanout bounds, and leaf-chain
// order. It returns "" when consistent.
func (t *BPTree) CheckInvariants() string {
	msg := t.check(t.root, nil, nil)
	if msg != "" {
		return msg
	}
	// Leaf chain must be globally sorted.
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	prev := uint64(0)
	first := true
	for ; n != nil; n = n.next {
		for _, k := range n.keys {
			if !first && k <= prev {
				return "leaf chain out of order"
			}
			prev, first = k, false
		}
	}
	return ""
}

func (t *BPTree) check(n *bpNode, lo, hi *uint64) string {
	if len(n.keys) > t.fanout {
		return "node over fanout"
	}
	for i := 1; i < len(n.keys); i++ {
		if n.keys[i-1] >= n.keys[i] {
			return "keys unsorted"
		}
	}
	for _, k := range n.keys {
		if lo != nil && k < *lo {
			return "key below subtree bound"
		}
		if hi != nil && k >= *hi {
			return "key above subtree bound"
		}
	}
	if n.leaf {
		if len(n.vals) != len(n.keys) {
			return "leaf vals/keys mismatch"
		}
		return ""
	}
	if len(n.children) != len(n.keys)+1 {
		return "internal children/keys mismatch"
	}
	for i, c := range n.children {
		var clo, chi *uint64
		if i > 0 {
			clo = &n.keys[i-1]
		} else {
			clo = lo
		}
		if i < len(n.keys) {
			chi = &n.keys[i]
		} else {
			chi = hi
		}
		if msg := t.check(c, clo, chi); msg != "" {
			return msg
		}
	}
	return ""
}
