package cli

import (
	"flag"
	"testing"

	"torchgt/internal/data"
)

func TestResolve(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"defaults", nil, "synth://arxiv-sim?nodes=2048&seed=1"},
		{"shorthand", []string{"-dataset", "pokec-sim", "-nodes", "96", "-seed", "7"}, "synth://pokec-sim?nodes=96&seed=7"},
		{"preset size", []string{"-nodes", "0"}, "synth://arxiv-sim?seed=1"},
		{"graph-level preset takes no node count", []string{"-dataset", "zinc-sim", "-seed", "3"}, "synth://zinc-sim?seed=3"},
		{"graph-level preset ignores -nodes", []string{"-dataset", "molpcba-sim", "-nodes", "64"}, "synth://molpcba-sim?seed=1"},
		{"explicit spec wins", []string{"-data", "file://a.tgds", "-dataset", "pokec-sim", "-seed", "9"}, "file://a.tgds"},
		{"reorder on the shorthand", []string{"-nodes", "64", "-reorder", "8"}, "synth://arxiv-sim?nodes=64&seed=1&reorder=cluster&reorderk=8"},
		{"reorder on a spec without parameters", []string{"-data", "file://a.tgds", "-reorder", "4"}, "file://a.tgds?reorder=cluster&reorderk=4"},
		{"reorder on a spec with parameters", []string{"-data", "shard://d?cache=1MiB", "-reorder", "4"}, "shard://d?cache=1MiB&reorder=cluster&reorderk=4"},
		{"reorder off", []string{"-data", "file://a.tgds", "-reorder", "0"}, "file://a.tgds"},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		var d Data
		d.Register(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := d.Resolve()
		if got != tc.want {
			t.Errorf("%s: %v resolves to %q, want %q", tc.name, tc.args, got, tc.want)
		}
		if _, err := data.ParseSpec(got); err != nil {
			t.Errorf("%s: %q does not parse: %v", tc.name, got, err)
		}
	}
}

// TestResolveOpens: what the shorthand resolves to opens to the dataset the
// equivalent hand-written spec opens to, for both dataset kinds, and a
// graph-level preset rejects the reorder transform instead of ignoring it.
func TestResolveOpens(t *testing.T) {
	node := Data{Dataset: "arxiv-sim", Nodes: 64, Seed: 5, Reorder: 4}
	d, err := data.OpenString(node.Resolve())
	if err != nil {
		t.Fatal(err)
	}
	if d.Node == nil || d.Node.G.N != 64 || d.Node.Reorder == nil {
		t.Fatalf("%s opened to %+v", node.Resolve(), d)
	}
	graphLevel := Data{Dataset: "zinc-sim", Nodes: 2048, Seed: 5}
	if d, err = data.OpenString(graphLevel.Resolve()); err != nil || d.Graph == nil {
		t.Fatalf("%s: %v", graphLevel.Resolve(), err)
	}
	graphLevel.Reorder = 4
	if _, err := data.OpenString(graphLevel.Resolve()); err == nil {
		t.Fatal("reordering a graph-level preset must error")
	}
}

func TestSynthSpec(t *testing.T) {
	if got := SynthSpec("arxiv-sim", 128, 2); got != "synth://arxiv-sim?nodes=128&seed=2" {
		t.Fatal(got)
	}
	if got := SynthSpec("zinc-sim", 0, -4); got != "synth://zinc-sim?seed=-4" {
		t.Fatal(got)
	}
}
