package data

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec("synth://arxiv-sim?nodes=4096&seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Scheme != "synth" || sp.Name != "arxiv-sim" || sp.Seed != 7 || sp.Params["nodes"] != "4096" {
		t.Fatalf("parsed %+v", sp)
	}
	if _, ok := sp.Params["seed"]; ok {
		t.Fatal("seed must move to the Seed field")
	}
}

func TestParseSpecFileShorthand(t *testing.T) {
	sp, err := ParseSpec("run/arxiv.tgds")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Scheme != "file" || sp.Name != "run/arxiv.tgds" || sp.Seed != 1 {
		t.Fatalf("parsed %+v", sp)
	}
	sp2, err := ParseSpec("file:///abs/path.tgds")
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Name != "/abs/path.tgds" {
		t.Fatalf("absolute path parsed as %q", sp2.Name)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"synth://",
		"://arxiv-sim",
		"synth://a?seed=x",
		"synth://a?nodes=1&nodes=2",
		"synth://a?bad%zz=1",
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("spec %q must fail to parse", s)
		}
	}
}

func TestSpecStringCanonical(t *testing.T) {
	sp, err := ParseSpec("synth://arxiv-sim?subsample=128&nodes=512")
	if err != nil {
		t.Fatal(err)
	}
	s := sp.String()
	if s != "synth://arxiv-sim?nodes=512&subsample=128&seed=1" {
		t.Fatalf("canonical form %q", s)
	}
	sp2, err := ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if sp2.String() != s {
		t.Fatalf("canonical form is not a fixed point: %q vs %q", sp2.String(), s)
	}
}

func TestOpenUnknownSchemeAndParams(t *testing.T) {
	if _, err := OpenString("nope://x"); err == nil || !strings.Contains(err.Error(), "no provider") {
		t.Fatalf("unknown scheme error: %v", err)
	}
	if _, err := OpenString("synth://arxiv-sim?nodez=17"); err == nil || !strings.Contains(err.Error(), "unknown parameter") {
		t.Fatalf("typo parameter must fail loudly: %v", err)
	}
	if _, err := OpenString("synth://no-such-preset"); err == nil {
		t.Fatal("unknown preset must error")
	}
	if _, err := OpenString("synth://zinc-sim?nodes=128"); err == nil {
		t.Fatal("nodes on a graph-level preset must error")
	}
	if got := fmt.Sprint(Schemes()); got != "[edgelist file jsonl shard synth]" {
		t.Fatalf("schemes %s, want the five built-ins", got)
	}
}

func TestOpenAppliesKindHelpers(t *testing.T) {
	if _, err := OpenNode("synth://zinc-sim"); err == nil {
		t.Fatal("graph-level spec through OpenNode must error")
	}
	if _, err := OpenGraphLevel("synth://arxiv-sim?nodes=128"); err == nil {
		t.Fatal("node spec through OpenGraphLevel must error")
	}
	nd, err := OpenNode("synth://arxiv-sim?nodes=128")
	if err != nil {
		t.Fatal(err)
	}
	if nd.G.N != 128 {
		t.Fatalf("nodes parameter ignored: %d", nd.G.N)
	}
}
