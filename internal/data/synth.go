package data

import (
	"fmt"
	"strings"

	"torchgt/internal/graph"
)

// synthProvider materialises the built-in synthetic presets — the scaled
// stand-ins for the paper's six benchmark suites (Table III) — through the
// graph package's generators (graph.LoadNodeScaled, graph.LoadGraphLevel).
type synthProvider struct{}

func (synthProvider) ParamKeys() []string { return []string{"nodes"} }

func (synthProvider) Open(sp Spec) (*Dataset, error) {
	for _, n := range graph.GraphLevelDatasetNames() {
		if n == sp.Name {
			if _, given := sp.Params["nodes"]; given {
				return nil, fmt.Errorf("data: synth preset %q is graph-level; the nodes parameter applies to node presets only", sp.Name)
			}
			ds, err := graph.LoadGraphLevel(sp.Name, sp.Seed)
			if err != nil {
				return nil, err
			}
			return &Dataset{Graph: ds}, nil
		}
	}
	nodes, err := sp.intParam("nodes", 0)
	if err != nil {
		return nil, err
	}
	ds, err := graph.LoadNodeScaled(sp.Name, nodes, sp.Seed)
	if err != nil {
		return nil, fmt.Errorf("data: unknown synth preset %q (node: %s; graph-level: %s)",
			sp.Name,
			strings.Join(graph.NodeDatasetNames(), ", "),
			strings.Join(graph.GraphLevelDatasetNames(), ", "))
	}
	return &Dataset{Node: ds}, nil
}
