package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}}, true)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, false) // already contains both directions
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed graph: %d/%d vs %d/%d", g2.N, g2.NumEdges(), g.N, g.NumEdges())
	}
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if !g2.HasEdge(int32(u), v) {
				t.Fatal("edge lost in round trip")
			}
		}
	}
}

func TestReadEdgeListUndirectedAndComments(t *testing.T) {
	in := "# a comment\n\n0 1\n2 0\n"
	g, err := ReadEdgeList(strings.NewReader(in), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || !g.HasEdge(1, 0) || !g.HasEdge(0, 2) {
		t.Fatal("undirected parse wrong")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n"), false); err == nil {
		t.Fatal("short line must error")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n"), false); err == nil {
		t.Fatal("non-numeric must error")
	}
	if _, err := ReadEdgeList(strings.NewReader("-1 2\n"), false); err == nil {
		t.Fatal("negative id must error")
	}
}
