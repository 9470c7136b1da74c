package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes "u v" lines (stored directed edges) to w.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.N, g.NumEdges())
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses whitespace-separated "u v" lines (lines starting with
// '#' are comments) and returns a graph over [0, maxID]. If undirected, the
// reverse of every edge is added.
func ReadEdgeList(r io.Reader, undirected bool) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := int32(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: need 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		e := Edge{int32(u), int32(v)}
		edges = append(edges, e)
		if e.U > maxID {
			maxID = e.U
		}
		if e.V > maxID {
			maxID = e.V
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromEdges(int(maxID)+1, edges, undirected), nil
}
