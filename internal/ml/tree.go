package ml

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// Tree is a CART regression tree: axis-aligned splits chosen by maximal
// variance reduction, mean-value leaves.
//
// Training uses a column-major pre-sorted split finder (the exact greedy
// algorithm of XGBoost and scikit-learn's presort path): every candidate
// feature column is ordered once per tree by a counting sort over a dense
// rank table (see rankTable), and each node re-derives its per-feature order
// by a stable in-place partition of the parent's index arrays, so per-node
// split finding costs O(d·n) instead of the O(d·n log n) a per-node sort
// pays. The fitted tree is one exact-length slice of packed 16-byte nodes in
// preorder (node, left subtree, right subtree), which Predict walks one node
// per level without pointer chasing.
type Tree struct {
	// MaxDepth limits tree depth (0 = unbounded, scikit-learn's default).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf.
	MinLeaf int
	// featurePicker restricts the candidate split features (nil = all) —
	// used by the random forest's per-node feature subsampling.
	featurePicker func(d int) []int

	d     int
	nodes []node
}

// node is one packed tree node. Preorder places a split's left child at the
// next index, so only the right child is stored. A leaf has feature -1 and
// keeps its mean target in thresh.
type node struct {
	thresh         float64
	feature, right int32
}

// NewTree returns a regression tree with the given limits.
func NewTree(maxDepth, minLeaf int) *Tree {
	if minLeaf < 1 {
		minLeaf = 1
	}
	return &Tree{MaxDepth: maxDepth, MinLeaf: minLeaf}
}

// rankTable maps every (feature, row) of a column-major design to the row's
// dense rank among the column's distinct values: equal values (−0 and +0
// included) share a rank and ranks ascend with the value, so ordering rows
// by (rank, row) is exactly ordering them by (value, row). A forest builds
// one table and shares it read-only across its trees.
type rankTable struct {
	n      int
	rank   []int32 // rank[f*n+i] is row i's rank in column f
	levels []int32 // levels[f] is the number of distinct values in column f
}

// newRankTable ranks cols (d columns of n rows each), sorting each column
// once with order (len >= n) as scratch.
func newRankTable(cols [][]float64, n int, order []int32) *rankTable {
	rt := &rankTable{n: n, rank: make([]int32, len(cols)*n), levels: make([]int32, len(cols))}
	order = order[:n]
	for f, col := range cols {
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		rank := rt.rank[f*n : (f+1)*n]
		k := int32(0)
		for p, i := range order {
			if p > 0 && col[order[p-1]] < col[i] {
				k++
			}
			rank[i] = k
		}
		rt.levels[f] = k + 1
	}
	return rt
}

// treeWorkspace owns every growth-time buffer so fitting one tree performs
// no per-node allocations: the column-major feature copy, the per-feature
// argsort index arrays, the row list mirroring the legacy recursion's
// original-order index slice, the partition and counting-sort scratch, and
// the node buffer the tree grows into. Workspaces are pooled
// (getWorkspace/putWorkspace) and resized monotonically.
type treeWorkspace struct {
	n, d int
	// cols[f][i] is feature f of sample i; colData is the shared backing.
	cols    [][]float64
	colData []float64
	// sorted[f] lists sample indices ordered by (cols[f][·], index); every
	// node owns a contiguous segment of each array.
	sorted     [][]int32
	sortedData []int32
	y          []float64
	// rows lists each node segment's samples in original row order — the
	// exact order the legacy engine accumulated means and SSEs in, so leaf
	// values stay bit-identical.
	rows     []int32
	tmp      []int32
	count    []int32
	goesLeft []bool
	allFeats []int
	nodes    []node
}

var wsPool = sync.Pool{New: func() any { return new(treeWorkspace) }}

func getWorkspace() *treeWorkspace  { return wsPool.Get().(*treeWorkspace) }
func putWorkspace(w *treeWorkspace) { wsPool.Put(w) }

// reset sizes the workspace for an n×d problem, reusing prior capacity.
func (w *treeWorkspace) reset(n, d int) {
	w.n, w.d = n, d
	if cap(w.colData) < n*d {
		w.colData = make([]float64, n*d)
		w.sortedData = make([]int32, n*d)
	}
	w.colData = w.colData[:n*d]
	w.sortedData = w.sortedData[:n*d]
	if cap(w.cols) < d {
		w.cols = make([][]float64, d)
		w.sorted = make([][]int32, d)
	}
	w.cols = w.cols[:d]
	w.sorted = w.sorted[:d]
	for f := 0; f < d; f++ {
		w.cols[f] = w.colData[f*n : (f+1)*n]
		w.sorted[f] = w.sortedData[f*n : (f+1)*n]
	}
	if cap(w.y) < n {
		w.y = make([]float64, n)
		w.rows = make([]int32, n)
		w.tmp = make([]int32, 0, n)
		w.count = make([]int32, n+1)
		w.goesLeft = make([]bool, n)
		// MinLeaf >= 1 bounds a tree at 2n-1 nodes, so growth never
		// reallocates this buffer.
		w.nodes = make([]node, 0, 2*n-1)
	}
	w.y = w.y[:n]
	w.rows = w.rows[:n]
	w.goesLeft = w.goesLeft[:n]
	if cap(w.allFeats) < d {
		w.allFeats = make([]int, d)
	}
	w.allFeats = w.allFeats[:d]
	for f := range w.allFeats {
		w.allFeats[f] = f
	}
}

// presort fills sorted[f] with the workspace's samples ordered by (value,
// index). Sample i is source row boot[i] of the rank table, so a stable
// counting sort of the samples by rank yields that order in O(n+K) per
// feature, for K distinct values.
func (w *treeWorkspace) presort(rt *rankTable, boot []int32) {
	for f := 0; f < w.d; f++ {
		rank := rt.rank[f*rt.n : (f+1)*rt.n]
		count := w.count[:rt.levels[f]+1]
		clear(count)
		for _, j := range boot {
			count[rank[j]+1]++
		}
		for k := 1; k < len(count); k++ {
			count[k] += count[k-1]
		}
		dst := w.sorted[f]
		for i, j := range boot {
			r := rank[j]
			dst[count[r]] = int32(i)
			count[r]++
		}
	}
}

// Fit implements Regressor.
func (t *Tree) Fit(X [][]float64, y []float64) error {
	n, d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.reset(n, d)
	for i, row := range X {
		for f, v := range row {
			ws.cols[f][i] = v
		}
		ws.y[i] = y[i]
	}
	rt := newRankTable(ws.cols, n, ws.tmp)
	ident := ws.tmp[:n]
	for i := range ident {
		ident[i] = int32(i)
	}
	ws.presort(rt, ident)
	t.fit(ws)
	return nil
}

// fit grows the tree from a loaded workspace (cols, y and sorted filled).
// The nodes grow in the workspace buffer and are copied out at exact length.
func (t *Tree) fit(ws *treeWorkspace) {
	t.d = ws.d
	for i := range ws.rows {
		ws.rows[i] = int32(i)
	}
	t.nodes = ws.nodes[:0]
	t.grow(ws, 0, ws.n, 0)
	ws.nodes = t.nodes
	t.nodes = append(make([]node, 0, len(ws.nodes)), ws.nodes...)
}

func (t *Tree) pushLeaf(mean float64) {
	t.nodes = append(t.nodes, node{thresh: mean, feature: -1, right: -1})
}

func (t *Tree) pushSplit(feature int, thresh float64) int32 {
	i := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{thresh: thresh, feature: int32(feature), right: -1})
	return i
}

// grow appends the subtree over segment [lo, hi) of the workspace index
// arrays to t.nodes in preorder. The scan preserves the legacy engine's
// selection semantics exactly: splits are only evaluated between strictly
// distinct adjacent sorted values, gains compare with strict >, and
// candidate features are probed in picker order.
func (t *Tree) grow(ws *treeWorkspace, lo, hi, depth int) {
	m := hi - lo
	rows := ws.rows[lo:hi]
	mean := meanRows(ws.y, rows)
	if m < 2*t.MinLeaf || (t.MaxDepth > 0 && depth >= t.MaxDepth) || pureRows(ws.y, rows) {
		t.pushLeaf(mean)
		return
	}

	feats := ws.allFeats
	if t.featurePicker != nil {
		feats = t.featurePicker(t.d)
	}
	bestFeat, bestThresh, bestGain := -1, 0.0, 0.0
	parentSSE := sseRows(ws.y, rows, mean)

	for _, f := range feats {
		seg := ws.sorted[f][lo:hi]
		keys := ws.cols[f]

		// Prefix scan: evaluate every split position with running sums.
		var sumL, sumSqL float64
		sumR, sumSqR := sumsRows(ws.y, seg)
		for i := 0; i < m-1; i++ {
			v := ws.y[seg[i]]
			sumL += v
			sumSqL += v * v
			sumR -= v
			sumSqR -= v * v
			// Can't split between equal feature values (exact stored-value
			// identity of adjacent sorted entries, not a tolerance check).
			//dsalint:ignore floateq
			if keys[seg[i]] == keys[seg[i+1]] {
				continue
			}
			nl, nr := i+1, m-i-1
			if nl < t.MinLeaf || nr < t.MinLeaf {
				continue
			}
			sseL := sumSqL - sumL*sumL/float64(nl)
			sseR := sumSqR - sumR*sumR/float64(nr)
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = 0.5 * (keys[seg[i]] + keys[seg[i+1]])
			}
		}
	}
	if bestFeat < 0 || bestGain <= 1e-12 {
		t.pushLeaf(mean)
		return
	}

	// Stable in-place partition of every per-feature segment (and the row
	// list) around the chosen split: left block keeps its relative order,
	// then the right block, so each child segment is already sorted.
	keys := ws.cols[bestFeat]
	nl := 0
	for _, r := range rows {
		gl := keys[r] <= bestThresh
		ws.goesLeft[r] = gl
		if gl {
			nl++
		}
	}
	stablePartition(rows, ws.goesLeft, ws.tmp)
	for f := 0; f < ws.d; f++ {
		stablePartition(ws.sorted[f][lo:hi], ws.goesLeft, ws.tmp)
	}

	split := t.pushSplit(bestFeat, bestThresh)
	t.grow(ws, lo, lo+nl, depth+1)
	t.nodes[split].right = int32(len(t.nodes))
	t.grow(ws, lo+nl, hi, depth+1)
}

// stablePartition reorders seg so rows flagged goesLeft come first, both
// blocks keeping their relative order. tmp must have capacity >= len(seg);
// the right block is staged there and copied back, so nothing allocates.
func stablePartition(seg []int32, goesLeft []bool, tmp []int32) {
	k := 0
	rest := tmp[:0]
	for _, r := range seg {
		if goesLeft[r] {
			seg[k] = r
			k++
		} else {
			rest = append(rest, r)
		}
	}
	copy(seg[k:], rest)
}

// Predict implements Regressor. A row narrower than the training dimension
// cannot be routed through the tree; Predict returns 0 for it (use
// PredictBatch for an explicit error). Extra trailing features are ignored.
func (t *Tree) Predict(x []float64) float64 {
	if len(t.nodes) == 0 || len(x) < t.d {
		return 0
	}
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.thresh
		}
		if x[nd.feature] <= nd.thresh {
			i++
		} else {
			i = nd.right
		}
	}
}

// PredictBatch applies the fitted tree to every row of X, rejecting rows
// whose width differs from the training dimension — the checked counterpart
// of Predict's documented zero fallback.
func (t *Tree) PredictBatch(X [][]float64) ([]float64, error) {
	if len(t.nodes) == 0 {
		return nil, errUnfitted("tree")
	}
	if err := checkRowWidths(X, t.d); err != nil {
		return nil, err
	}
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = t.Predict(x)
	}
	return out, nil
}

// Depth returns the fitted tree's depth (0 for a stump).
func (t *Tree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	return t.depthAt(0)
}

func (t *Tree) depthAt(i int32) int {
	if t.nodes[i].feature < 0 {
		return 0
	}
	return 1 + max(t.depthAt(i+1), t.depthAt(t.nodes[i].right))
}

// Leaves returns the fitted leaf count.
func (t *Tree) Leaves() int {
	var n int
	for _, nd := range t.nodes {
		if nd.feature < 0 {
			n++
		}
	}
	return n
}

// subtreeLeafCounts returns, for every node, the number of leaves under it.
// Children follow their parent in the preorder layout, so one reverse sweep
// suffices.
func (t *Tree) subtreeLeafCounts() []int32 {
	counts := make([]int32, len(t.nodes))
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if nd := t.nodes[i]; nd.feature < 0 {
			counts[i] = 1
		} else {
			counts[i] = counts[i+1] + counts[nd.right]
		}
	}
	return counts
}

func meanRows(y []float64, rows []int32) float64 {
	var s float64
	for _, i := range rows {
		s += y[i]
	}
	return s / float64(len(rows))
}

func sseRows(y []float64, rows []int32, mean float64) float64 {
	var s float64
	for _, i := range rows {
		d := y[i] - mean
		s += d * d
	}
	return s
}

func sumsRows(y []float64, rows []int32) (sum, sumSq float64) {
	for _, i := range rows {
		sum += y[i]
		sumSq += y[i] * y[i]
	}
	return sum, sumSq
}

func pureRows(y []float64, rows []int32) bool {
	first := y[rows[0]]
	for _, i := range rows[1:] {
		if math.Abs(y[i]-first) > 1e-15 {
			return false
		}
	}
	return true
}
