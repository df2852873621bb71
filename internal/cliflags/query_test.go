package cliflags

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	mpmb "github.com/uncertain-graphs/mpmb"
)

func parseQuery(t *testing.T, args ...string) (*Group, *QueryValues) {
	t.Helper()
	g := New("test")
	q := g.QueryFlags()
	if err := g.Parse(args); err != nil {
		t.Fatalf("Parse(%q): %v", args, err)
	}
	return g, q
}

func TestQueryFlagsBuild(t *testing.T) {
	_, q := parseQuery(t)
	built, err := q.Build()
	if err != nil || built != nil {
		t.Fatalf("no flags: Build() = %+v, %v; want nil, nil", built, err)
	}

	_, q = parseQuery(t, "-anchor-l", "3")
	built, err = q.Build()
	if err != nil {
		t.Fatal(err)
	}
	if built.AnchorL == nil || *built.AnchorL != 3 || built.AnchorR != nil {
		t.Fatalf("anchor-l build: %+v", built)
	}

	_, q = parseQuery(t, "-anchor-edge", "2:5", "-adaptive-prep")
	built, err = q.Build()
	if err != nil {
		t.Fatal(err)
	}
	if built.AnchorEdge == nil || *built.AnchorEdge != (mpmb.EdgeAnchor{U: 2, V: 5}) || !built.AdaptivePrep {
		t.Fatalf("anchor-edge build: %+v", built)
	}

	_, q = parseQuery(t, "-communities", "0,0,1/0,-1,1", "-community-topk", "3")
	built, err = q.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := built.Community
	if c == nil || c.TopK != 3 || len(c.L) != 3 || len(c.R) != 3 || c.R[1] != -1 {
		t.Fatalf("communities build: %+v", c)
	}
}

func TestQueryFlagsBuildErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-anchor-l", "-7"}, "-anchor-l"},
		{[]string{"-anchor-l", "4294967299"}, "-anchor-l"},
		{[]string{"-anchor-r", "4294967296"}, "-anchor-r"},
		{[]string{"-anchor-edge", "4294967296:4294967297"}, "left endpoint"},
		{[]string{"-anchor-edge", "0:4294967297"}, "right endpoint"},
		{[]string{"-anchor-edge", "12"}, "u:v"},
		{[]string{"-anchor-edge", "a:2"}, "left endpoint"},
		{[]string{"-anchor-edge", "2:-1"}, "right endpoint"},
		{[]string{"-communities", "0,0,1"}, "'/'"},
		{[]string{"-communities", "0,x/1"}, "not an integer"},
		{[]string{"-communities", "0,-2/1"}, "below -1"},
		{[]string{"-community-topk", "2"}, "requires -communities"},
	} {
		_, q := parseQuery(t, tc.args...)
		if _, err := q.Build(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Build(%q) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestQueryFlagAttribution: a query OptionError out of the library comes
// back pointing at the flag spelling the user typed.
func TestQueryFlagAttribution(t *testing.T) {
	b := mpmb.NewBuilder(2, 2)
	b.MustAddEdge(0, 0, 1, 0.5)
	b.MustAddEdge(0, 1, 1, 0.5)
	b.MustAddEdge(1, 0, 1, 0.5)
	b.MustAddEdge(1, 1, 1, 0.5)
	g := b.Build()

	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-anchor-l", "9"}, "flag -anchor-l:"},
		{[]string{"-anchor-r", "9"}, "flag -anchor-r:"},
		{[]string{"-anchor-edge", "9:0"}, "flag -anchor-edge:"},
		{[]string{"-communities", "0/0,0"}, "flag -communities:"},
	} {
		grp, q := parseQuery(t, tc.args...)
		query, err := q.Build()
		if err != nil {
			t.Fatalf("Build(%q): %v", tc.args, err)
		}
		opt := mpmb.DefaultOptions()
		opt.Trials = 100
		opt.Query = query
		_, err = mpmb.Search(g, opt)
		if err == nil {
			t.Fatalf("Search(%q) accepted an out-of-range query", tc.args)
		}
		dec := grp.DecorateError(err)
		if !strings.Contains(dec.Error(), tc.flag) {
			t.Errorf("DecorateError(%q) = %q, want prefix %q", tc.args, dec, tc.flag)
		}
	}

	// AdaptivePrep on a method with no preparing phase attributes to its
	// flag too.
	grp, q := parseQuery(t, "-adaptive-prep")
	query, err := q.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := mpmb.DefaultOptions()
	opt.Method = mpmb.MethodOS
	opt.Trials = 100
	opt.Query = query
	if err := opt.Validate(); err == nil {
		t.Fatal("Validate accepted adaptive prep on os")
	} else if dec := grp.DecorateError(err); !strings.Contains(dec.Error(), "flag -adaptive-prep:") {
		t.Errorf("DecorateError = %q, want -adaptive-prep attribution", dec)
	}
}

// FuzzParseEdgeAnchor: an accepted "u:v" names exactly the ids written in
// it, with no wrap around 2³², and its canonical spelling parses back to
// the same anchor.
func FuzzParseEdgeAnchor(f *testing.F) {
	for _, s := range []string{"2:5", " 0 : 4294967295 ", "4294967296:4294967297", "+3:7", "-1:2", "1:2:3", "x", ":"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := ParseEdgeAnchor(s)
		if err != nil {
			return
		}
		u, v, _ := strings.Cut(s, ":")
		for _, side := range []struct {
			text string
			id   mpmb.VertexID
		}{{u, e.U}, {v, e.V}} {
			n, err := strconv.ParseInt(strings.TrimSpace(side.text), 10, 64)
			if err != nil || n != int64(side.id) {
				t.Fatalf("ParseEdgeAnchor(%q) = %d:%d, but the input reads %q", s, e.U, e.V, side.text)
			}
		}
		again, err := ParseEdgeAnchor(fmt.Sprintf("%d:%d", e.U, e.V))
		if err != nil || *again != *e {
			t.Fatalf("ParseEdgeAnchor(%q) = %+v, which re-parses to %+v, %v", s, *e, again, err)
		}
	})
}

// FuzzParseCommunities: every accepted label is at least -1, and the
// labels joined back into a spec parse to the same labels.
func FuzzParseCommunities(f *testing.F) {
	for _, s := range []string{"0,0,1/0,-1,1", "/", " 1 , ,2/ 3", "0,-2/1", "0,x/1", "0,0,1", "9223372036854775807/-1"} {
		f.Add(s)
	}
	join := func(labels []int) string {
		parts := make([]string, len(labels))
		for i, l := range labels {
			parts[i] = strconv.Itoa(l)
		}
		return strings.Join(parts, ",")
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCommunities(s)
		if err != nil {
			return
		}
		for _, l := range slices.Concat(c.L, c.R) {
			if l < -1 {
				t.Fatalf("ParseCommunities(%q) accepted label %d", s, l)
			}
		}
		spec := join(c.L) + "/" + join(c.R)
		again, err := ParseCommunities(spec)
		if err != nil || !slices.Equal(again.L, c.L) || !slices.Equal(again.R, c.R) {
			t.Fatalf("ParseCommunities(%q) = %v/%v, which re-joins to %q and parses to %+v, %v", s, c.L, c.R, spec, again, err)
		}
	})
}
