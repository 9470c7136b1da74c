// Package data is the dataset layer of TorchGT-Go: a fixed table of
// providers that resolves URI-style dataset specs into node- or
// graph-level datasets. A spec names where the data comes from (a
// synthetic preset, a saved tGDS container, an external edge list or JSONL
// file, a shard directory), how it is parameterised, and which declarative
// transforms run over it. The contract is
// determinism: opening the same spec twice yields bitwise-identical
// datasets — fields, masks and CSR arrays — which is what lets Session
// checkpoints record a spec and re-open the data on resume.
//
//	synth://arxiv-sim?nodes=4096&seed=1
//	file://run/arxiv.tgds
//	edgelist://run/edges.csv?labels=run/labels.csv&featdim=16
//	jsonl://run/molecules.jsonl?task=regression
//	synth://products-sim?nodes=8192&subsample=2048&selfloops=1&resplit=0.7:0.1
package data

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// Spec identifies one dataset: a provider scheme, a provider-specific name
// (a preset name or a file path), the generation seed, and the remaining
// parameters (provider options + declarative transforms). Parse one from a
// string with ParseSpec; the canonical form (String) sorts parameters and
// always spells the seed, so equal specs compare equal as strings.
type Spec struct {
	// Scheme selects the provider ("synth", "file", "edgelist", "jsonl"
	// or "shard").
	Scheme string
	// Name is the provider-specific identifier: the synthetic preset name
	// or the file path.
	Name string
	// Seed drives every random choice the provider and the transforms
	// make (the "seed" query parameter; default 1).
	Seed int64
	// Params holds the remaining query parameters.
	Params map[string]string
}

// ParseSpec parses a URI-style dataset spec. A string without "://" is
// shorthand for the file provider ("path.tgds" ≡ "file://path.tgds").
// Query parameters are single-valued; duplicates are an error.
func ParseSpec(s string) (Spec, error) {
	sp := Spec{Seed: 1, Params: map[string]string{}}
	rest := s
	if i := strings.Index(s, "://"); i >= 0 {
		sp.Scheme = s[:i]
		rest = s[i+3:]
	} else {
		sp.Scheme = "file"
	}
	if sp.Scheme == "" {
		return Spec{}, fmt.Errorf("data: spec %q has an empty scheme", s)
	}
	if i := strings.IndexByte(rest, '?'); i >= 0 {
		query := rest[i+1:]
		rest = rest[:i]
		for _, kv := range strings.Split(query, "&") {
			if kv == "" {
				continue
			}
			k, v, _ := strings.Cut(kv, "=")
			ku, err := url.QueryUnescape(k)
			if err != nil {
				return Spec{}, fmt.Errorf("data: spec %q: bad parameter %q: %w", s, kv, err)
			}
			vu, err := url.QueryUnescape(v)
			if err != nil {
				return Spec{}, fmt.Errorf("data: spec %q: bad parameter %q: %w", s, kv, err)
			}
			if _, dup := sp.Params[ku]; dup {
				return Spec{}, fmt.Errorf("data: spec %q repeats parameter %q", s, ku)
			}
			sp.Params[ku] = vu
		}
	}
	sp.Name = rest
	if sp.Name == "" {
		return Spec{}, fmt.Errorf("data: spec %q names no dataset", s)
	}
	if v, ok := sp.Params["seed"]; ok {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("data: spec %q: bad seed %q", s, v)
		}
		sp.Seed = seed
		delete(sp.Params, "seed")
	}
	return sp, nil
}

// String renders the canonical form: sorted parameters, explicit seed.
// Opening sp.String() yields a dataset bitwise-identical to opening sp.
func (sp Spec) String() string {
	var b strings.Builder
	b.WriteString(sp.Scheme)
	b.WriteString("://")
	b.WriteString(sp.Name)
	keys := make([]string, 0, len(sp.Params))
	for k := range sp.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sep := byte('?')
	for _, k := range keys {
		b.WriteByte(sep)
		sep = '&'
		b.WriteString(url.QueryEscape(k))
		b.WriteByte('=')
		b.WriteString(url.QueryEscape(sp.Params[k]))
	}
	fmt.Fprintf(&b, "%cseed=%d", sep, sp.Seed)
	return b.String()
}

// param returns a parameter value ("" when absent).
func (sp Spec) param(key string) string { return sp.Params[key] }

// intParam returns a positive-integer parameter, or def when absent.
func (sp Spec) intParam(key string, def int) (int, error) {
	v, ok := sp.Params[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("data: parameter %s=%q: want a non-negative integer", key, v)
	}
	return n, nil
}

// boolParam returns a boolean parameter (1/0, true/false), or def when
// absent.
func (sp Spec) boolParam(key string, def bool) (bool, error) {
	v, ok := sp.Params[key]
	if !ok {
		return def, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("data: parameter %s=%q: want a boolean", key, v)
	}
	return b, nil
}

// fracParam returns a fraction in [0, 1], or def when absent.
func (sp Spec) fracParam(key string, def float64) (float64, error) {
	v, ok := sp.Params[key]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < 0 || f > 1 {
		return 0, fmt.Errorf("data: parameter %s=%q: want a fraction in [0,1]", key, v)
	}
	return f, nil
}

// checkParams rejects parameters that neither the provider (allowed) nor
// the transform stage understands — typos fail loudly instead of silently
// producing a different dataset than intended.
func (sp Spec) checkParams(allowed ...string) error {
	ok := map[string]bool{}
	for _, k := range allowed {
		ok[k] = true
	}
	for _, p := range transformParams {
		ok[p.key] = true
	}
	for k := range sp.Params {
		if !ok[k] {
			return fmt.Errorf("data: spec %s: unknown parameter %q", sp.String(), k)
		}
	}
	return nil
}
