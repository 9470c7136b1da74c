package data

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"torchgt/internal/graph"
	"torchgt/internal/tensor"
)

// External ingestion. Both providers stream their input line by line —
// bufio over the file, one record decoded at a time — so memory is bounded
// by the dataset being built, never by a whole-file slurp. The edge-list
// scanner additionally parses fields in place (no per-line string
// allocation); BenchmarkIngestEdgeListStream pins that property in CI.

// edgeListProvider ingests a node-level dataset from an external edge list
// (CSV or whitespace-separated "u v" lines, '#' comments, one optional
// header line). Node IDs must be dense-ish non-negative integers; the
// graph spans [0, maxID].
//
// Parameters:
//
//	undirected   add the reverse of every edge (default true)
//	labels       CSV of "node,label" lines; classes = max label + 1
//	features     CSV of "node,v0,v1,…" lines (feature dim from first line)
//	featdim      dimension of generated N(0,1) features when no features
//	             file is given (default 16)
//	classes      class-count override (≥ max label + 1)
//	trainfrac    train split fraction for the generated masks (default 0.6)
//	valfrac      validation split fraction (default 0.2)
//	name         dataset name (default: file basename)
type edgeListProvider struct{}

func (edgeListProvider) ParamKeys() []string {
	return []string{"undirected", "labels", "features", "featdim", "classes", "trainfrac", "valfrac", "name"}
}

func (edgeListProvider) Open(sp Spec) (*Dataset, error) {
	undirected, err := sp.boolParam("undirected", true)
	if err != nil {
		return nil, err
	}
	featDim, err := sp.intParam("featdim", 16)
	if err != nil {
		return nil, err
	}
	classesOverride, err := sp.intParam("classes", 0)
	if err != nil {
		return nil, err
	}
	trainFrac, err := sp.fracParam("trainfrac", 0.6)
	if err != nil {
		return nil, err
	}
	valFrac, err := sp.fracParam("valfrac", 0.2)
	if err != nil {
		return nil, err
	}
	if trainFrac+valFrac > 1 {
		return nil, fmt.Errorf("data: trainfrac+valfrac = %.3f exceeds 1", trainFrac+valFrac)
	}

	f, err := os.Open(sp.Name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var edges []graph.Edge
	maxID := int32(-1)
	err = scanEdges(f, func(u, v int32) error {
		edges = append(edges, graph.Edge{U: u, V: v})
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("data: %s: %w", sp.Name, err)
	}
	if maxID < 0 {
		return nil, fmt.Errorf("data: %s holds no edges", sp.Name)
	}
	n := int(maxID) + 1
	if n > maxNodes {
		return nil, fmt.Errorf("data: %s: node id %d exceeds the supported maximum", sp.Name, maxID)
	}
	g := graph.FromEdges(n, edges, undirected)

	nd := &graph.NodeDataset{
		Name:   sp.param("name"),
		G:      g,
		Y:      make([]int32, n),
		Blocks: make([]int32, n),
	}
	if nd.Name == "" {
		base := filepath.Base(sp.Name)
		nd.Name = strings.TrimSuffix(base, filepath.Ext(base))
	}

	// Labels: an external per-node CSV, or the single-class fallback.
	nd.NumClasses = 2
	if path := sp.param("labels"); path != "" {
		maxLabel, err := readLabels(path, nd.Y)
		if err != nil {
			return nil, err
		}
		nd.NumClasses = int(maxLabel) + 1
		if nd.NumClasses < 2 {
			nd.NumClasses = 2
		}
	}
	if classesOverride > 0 {
		if classesOverride < nd.NumClasses {
			return nil, fmt.Errorf("data: classes=%d is below the %d classes present in %s",
				classesOverride, nd.NumClasses, sp.param("labels"))
		}
		nd.NumClasses = classesOverride
	}

	// Features: an external per-node CSV, or deterministic generated ones.
	if path := sp.param("features"); path != "" {
		nd.X, err = readFeatures(path, n)
		if err != nil {
			return nil, err
		}
	} else {
		if featDim <= 0 {
			return nil, fmt.Errorf("data: featdim must be positive when no features file is given")
		}
		rng := rand.New(rand.NewSource(sp.Seed))
		nd.X = tensor.New(n, featDim)
		tensor.RandN(nd.X, rng, 1.0)
	}

	rng := rand.New(rand.NewSource(sp.Seed))
	nd.TrainMask, nd.ValMask, nd.TestMask = graph.RandomMasks(n, trainFrac, valFrac, rng)
	return &Dataset{Node: nd}, nil
}

// scanEdges streams "u<sep>v" lines to fn without allocating per line:
// fields are split in place on the scanner's buffer and parsed with a
// byte-level integer parser. Separators are commas, semicolons, spaces and
// tabs; blank lines and '#' comments are skipped; one leading header line
// (non-numeric first field) is tolerated.
func scanEdges(r io.Reader, fn func(u, v int32) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	sawData := false
	var fields [8][]byte
	for sc.Scan() {
		lineNo++
		line := trimSpaceBytes(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		nf := splitFields(line, fields[:0])
		if len(nf) < 2 {
			return fmt.Errorf("line %d: need 2 fields, got %d", lineNo, len(nf))
		}
		u, okU := parseInt32(nf[0])
		v, okV := parseInt32(nf[1])
		if !okU || !okV {
			// parseInt32 fails for non-numeric fields AND for numeric ones
			// that overflow int32. Only the former may be a header line; an
			// overflowing ID must error, not vanish into the header skip.
			if (!okU && numericField(nf[0])) || (!okV && numericField(nf[1])) {
				return fmt.Errorf("line %d: node id overflows int32 in %q", lineNo, line)
			}
			if !sawData {
				// header line ("src,dst"): skip once
				sawData = true
				continue
			}
			return fmt.Errorf("line %d: non-numeric edge %q", lineNo, line)
		}
		sawData = true
		if u < 0 || v < 0 {
			return fmt.Errorf("line %d: negative node id", lineNo)
		}
		if err := fn(u, v); err != nil {
			return err
		}
	}
	return sc.Err()
}

func isSep(c byte) bool { return c == ',' || c == ';' || c == ' ' || c == '\t' }

func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// splitFields appends sub-slices of line (no copies) to dst.
func splitFields(line []byte, dst [][]byte) [][]byte {
	start := -1
	for i := 0; i <= len(line); i++ {
		if i == len(line) || isSep(line[i]) {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	return dst
}

// numericField reports whether b looks like a (signed) decimal integer.
// parseInt32 fails both for non-numeric fields and for numeric ones that
// overflow int32; callers use this to tell the two apart, so an oversized
// node ID errors descriptively instead of being mistaken for a header word.
func numericField(b []byte) bool {
	i := 0
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		i = 1
	}
	if i == len(b) {
		return false
	}
	for ; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' {
			return false
		}
	}
	return true
}

// parseInt32 parses a decimal integer from bytes without allocating.
func parseInt32(b []byte) (int32, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		i = 1
		if len(b) == 1 {
			return 0, false
		}
	}
	var v int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
		if v > 1<<31 {
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	if v < -1<<31 || v > 1<<31-1 {
		return 0, false
	}
	return int32(v), true
}

// readLabels streams "node,label" lines into y and returns the largest
// label seen.
func readLabels(path string, y []int32) (int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	maxLabel := int32(0)
	sawData := false
	lineNo := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var fields [4][]byte
	for sc.Scan() {
		lineNo++
		line := trimSpaceBytes(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		nf := splitFields(line, fields[:0])
		if len(nf) < 2 {
			return 0, fmt.Errorf("data: %s line %d: need node,label", path, lineNo)
		}
		node, okN := parseInt32(nf[0])
		label, okL := parseInt32(nf[1])
		if !okN || !okL {
			if (!okN && numericField(nf[0])) || (!okL && numericField(nf[1])) {
				return 0, fmt.Errorf("data: %s line %d: value overflows int32 in %q", path, lineNo, line)
			}
			if !sawData {
				sawData = true
				continue
			}
			return 0, fmt.Errorf("data: %s line %d: non-numeric %q", path, lineNo, line)
		}
		sawData = true
		if node < 0 || int(node) >= len(y) {
			return 0, fmt.Errorf("data: %s line %d: node %d outside the graph's %d nodes", path, lineNo, node, len(y))
		}
		if label < 0 {
			return 0, fmt.Errorf("data: %s line %d: negative label", path, lineNo)
		}
		y[node] = label
		if label > maxLabel {
			maxLabel = label
		}
	}
	return maxLabel, sc.Err()
}

// readFeatures streams "node,v0,v1,…" lines into an n×featDim matrix; the
// feature dimension is the first data line's width. Nodes without a line
// keep zero features.
func readFeatures(path string, n int) (*tensor.Mat, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var x *tensor.Mat
	lineNo := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var fields [256][]byte
	for sc.Scan() {
		lineNo++
		line := trimSpaceBytes(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		nf := splitFields(line, fields[:0])
		if len(nf) < 2 {
			return nil, fmt.Errorf("data: %s line %d: need node,v0,…", path, lineNo)
		}
		node, ok := parseInt32(nf[0])
		if !ok {
			if numericField(nf[0]) {
				return nil, fmt.Errorf("data: %s line %d: node id overflows int32", path, lineNo)
			}
			if x == nil {
				continue // header line
			}
			return nil, fmt.Errorf("data: %s line %d: non-numeric node id", path, lineNo)
		}
		if node < 0 || int(node) >= n {
			return nil, fmt.Errorf("data: %s line %d: node %d outside the graph's %d nodes", path, lineNo, node, n)
		}
		if x == nil {
			x = tensor.New(n, len(nf)-1)
		} else if len(nf)-1 != x.Cols {
			return nil, fmt.Errorf("data: %s line %d: %d features, first line had %d", path, lineNo, len(nf)-1, x.Cols)
		}
		row := x.Row(int(node))
		for j, b := range nf[1:] {
			v, err := strconv.ParseFloat(string(b), 32)
			if err != nil {
				return nil, fmt.Errorf("data: %s line %d: bad feature %q", path, lineNo, b)
			}
			row[j] = float32(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("data: %s holds no feature rows", path)
	}
	return x, nil
}

// jsonlProvider ingests a graph-level dataset from a JSON-lines file: one
// object per line, decoded one line at a time.
//
//	{"edges": [[0,1],[1,2]], "n": 3, "x": [[…],…], "label": 2}
//	{"edges": [[0,1]], "target": 1.37}
//
// "n" defaults to max node id + 1; "x" (per-node feature rows) defaults to
// generated N(0,1) features of dimension featdim. Lines must be uniformly
// labelled (classification) or targeted (regression); "task" pins the
// expectation up front.
//
// Parameters:
//
//	task       classification | regression (default: from the first line)
//	undirected add the reverse of every edge (default true)
//	featdim    generated-feature dimension when lines carry no "x" (default 16)
//	classes    class-count override (≥ max label + 1)
//	trainfrac  train split fraction (default 0.8)
//	valfrac    validation split fraction (default 0.1)
//	name       dataset name (default: file basename)
type jsonlProvider struct{}

func (jsonlProvider) ParamKeys() []string {
	return []string{"task", "undirected", "featdim", "classes", "trainfrac", "valfrac", "name"}
}

type jsonlRecord struct {
	N      int         `json:"n"`
	Edges  [][2]int32  `json:"edges"`
	X      [][]float32 `json:"x"`
	Label  *int32      `json:"label"`
	Target *float32    `json:"target"`
}

func (jsonlProvider) Open(sp Spec) (*Dataset, error) {
	undirected, err := sp.boolParam("undirected", true)
	if err != nil {
		return nil, err
	}
	featDim, err := sp.intParam("featdim", 16)
	if err != nil {
		return nil, err
	}
	classesOverride, err := sp.intParam("classes", 0)
	if err != nil {
		return nil, err
	}
	trainFrac, err := sp.fracParam("trainfrac", 0.8)
	if err != nil {
		return nil, err
	}
	valFrac, err := sp.fracParam("valfrac", 0.1)
	if err != nil {
		return nil, err
	}
	if trainFrac+valFrac > 1 {
		return nil, fmt.Errorf("data: trainfrac+valfrac = %.3f exceeds 1", trainFrac+valFrac)
	}
	var wantTask graph.Task = -1
	switch sp.param("task") {
	case "":
	case "classification":
		wantTask = graph.GraphClassification
	case "regression":
		wantTask = graph.GraphRegression
	default:
		return nil, fmt.Errorf("data: parameter task=%q: want classification or regression", sp.param("task"))
	}

	f, err := os.Open(sp.Name)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	gd := &graph.GraphDataset{Name: sp.param("name"), Task: wantTask}
	if gd.Name == "" {
		base := filepath.Base(sp.Name)
		gd.Name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	rng := rand.New(rand.NewSource(sp.Seed))
	maxLabel := int32(-1)

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<22), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := trimSpaceBytes(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("data: %s line %d: %w", sp.Name, lineNo, err)
		}
		g, x, err := recordGraph(&rec, featDim, rng)
		if err != nil {
			return nil, fmt.Errorf("data: %s line %d: %w", sp.Name, lineNo, err)
		}
		if undirected {
			g = graph.FromEdges(g.N, g.Edges(), true)
		}
		switch {
		case rec.Label != nil && rec.Target != nil:
			return nil, fmt.Errorf("data: %s line %d: both label and target given", sp.Name, lineNo)
		case rec.Label != nil:
			if gd.Task == graph.GraphRegression {
				return nil, fmt.Errorf("data: %s line %d: label in a regression dataset", sp.Name, lineNo)
			}
			gd.Task = graph.GraphClassification
			if *rec.Label < 0 {
				return nil, fmt.Errorf("data: %s line %d: negative label", sp.Name, lineNo)
			}
			gd.Labels = append(gd.Labels, *rec.Label)
			if *rec.Label > maxLabel {
				maxLabel = *rec.Label
			}
		case rec.Target != nil:
			if gd.Task == graph.GraphClassification {
				return nil, fmt.Errorf("data: %s line %d: target in a classification dataset", sp.Name, lineNo)
			}
			gd.Task = graph.GraphRegression
			gd.Targets = append(gd.Targets, *rec.Target)
		default:
			return nil, fmt.Errorf("data: %s line %d: needs label or target", sp.Name, lineNo)
		}
		if gd.FeatDim == 0 {
			gd.FeatDim = x.Cols
		} else if x.Cols != gd.FeatDim {
			return nil, fmt.Errorf("data: %s line %d: feature dim %d, first graph had %d", sp.Name, lineNo, x.Cols, gd.FeatDim)
		}
		gd.Graphs = append(gd.Graphs, g)
		gd.Feats = append(gd.Feats, x)
		if len(gd.Graphs) > maxGraphs {
			return nil, fmt.Errorf("data: %s: more than %d graphs", sp.Name, maxGraphs)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(gd.Graphs) == 0 {
		return nil, fmt.Errorf("data: %s holds no graphs", sp.Name)
	}
	if gd.Task == graph.GraphClassification {
		gd.NumClasses = int(maxLabel) + 1
		if gd.NumClasses < 2 {
			gd.NumClasses = 2
		}
		if classesOverride > 0 {
			if classesOverride < int(maxLabel)+1 {
				return nil, fmt.Errorf("data: classes=%d is below the %d classes present in %s",
					classesOverride, maxLabel+1, sp.Name)
			}
			gd.NumClasses = classesOverride
		}
	}

	n := len(gd.Graphs)
	perm := rng.Perm(n)
	nTrain := int(float64(n) * trainFrac)
	nVal := int(float64(n) * valFrac)
	if nTrain+nVal > n {
		nVal = n - nTrain
	}
	gd.TrainIdx = append(gd.TrainIdx, perm[:nTrain]...)
	gd.ValIdx = append(gd.ValIdx, perm[nTrain:nTrain+nVal]...)
	gd.TestIdx = append(gd.TestIdx, perm[nTrain+nVal:]...)
	return &Dataset{Graph: gd}, nil
}

// recordGraph builds one member graph + feature matrix from a JSONL record.
func recordGraph(rec *jsonlRecord, featDim int, rng *rand.Rand) (*graph.Graph, *tensor.Mat, error) {
	n := rec.N
	for _, e := range rec.Edges {
		if e[0] < 0 || e[1] < 0 {
			return nil, nil, fmt.Errorf("negative node id in edge [%d,%d]", e[0], e[1])
		}
		if int(e[0]) >= n {
			n = int(e[0]) + 1
		}
		if int(e[1]) >= n {
			n = int(e[1]) + 1
		}
	}
	if rec.X != nil && len(rec.X) > n {
		n = len(rec.X)
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("empty graph")
	}
	if n > maxNodes {
		return nil, nil, fmt.Errorf("graph of %d nodes exceeds the supported maximum", n)
	}
	edges := make([]graph.Edge, len(rec.Edges))
	for i, e := range rec.Edges {
		edges[i] = graph.Edge{U: e[0], V: e[1]}
	}
	g := graph.FromEdges(n, edges, false)
	var x *tensor.Mat
	if rec.X != nil {
		if len(rec.X) != n {
			return nil, nil, fmt.Errorf("%d feature rows for %d nodes", len(rec.X), n)
		}
		x = tensor.New(n, len(rec.X[0]))
		for i, row := range rec.X {
			if len(row) != x.Cols {
				return nil, nil, fmt.Errorf("ragged feature rows (%d vs %d)", len(row), x.Cols)
			}
			copy(x.Row(i), row)
		}
	} else {
		if featDim <= 0 {
			return nil, nil, fmt.Errorf("featdim must be positive when lines carry no features")
		}
		x = tensor.New(n, featDim)
		tensor.RandN(x, rng, 1.0)
	}
	return g, x, nil
}
