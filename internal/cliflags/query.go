package cliflags

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	mpmb "github.com/uncertain-graphs/mpmb"
)

// QueryValues holds the parsed query-variant flag block shared by the
// search-running commands (mpmb-search, mpmb-bench, mpmb-serve spell the
// variants identically through it).
type QueryValues struct {
	// AnchorL / AnchorR anchor the query on a vertex; -1 means unset.
	AnchorL *int
	AnchorR *int
	// AnchorEdge anchors the query on the backbone edge "u:v".
	AnchorEdge *string
	// Communities is the per-community label spec: left labels, a "/",
	// then right labels, comma-separated, -1 excluding a vertex.
	Communities *string
	// CommunityTopK is each community's contribution to the merged top-k.
	CommunityTopK *int
	// AdaptivePrep sizes the OLS preparing phase from a butterfly-count
	// pre-pass.
	AdaptivePrep *bool
}

// QueryFlags registers the canonical query-variant flags and their
// Options-field attributions.
func (g *Group) QueryFlags() *QueryValues {
	q := &QueryValues{
		AnchorL:       g.Int("anchor-l", -1, "restrict the search to butterflies containing this left vertex"),
		AnchorR:       g.Int("anchor-r", -1, "restrict the search to butterflies containing this right vertex"),
		AnchorEdge:    g.String("anchor-edge", "", "restrict the search to butterflies containing the backbone edge `u:v`"),
		Communities:   g.String("communities", "", "per-community top-k: left labels, '/', right labels, comma-separated (`0,0,1/0,1,1`; -1 excludes a vertex)"),
		CommunityTopK: g.Int("community-topk", 0, "estimates each community contributes to the merged top-k (0 means 1)"),
		AdaptivePrep:  g.Bool("adaptive-prep", false, "size the OLS preparing phase from an approximate butterfly-count pre-pass"),
	}
	g.Field("Query.AnchorL", "anchor-l")
	g.Field("Query.AnchorR", "anchor-r")
	g.Field("Query.AnchorEdge", "anchor-edge")
	g.Field("Query.Community", "communities")
	g.Field("Query.AdaptivePrep", "adaptive-prep")
	return q
}

// Build assembles the *mpmb.Query the flags describe. It returns (nil,
// nil) when no query flag was used, so callers can leave Options.Query
// unset for the global query.
func (q *QueryValues) Build() (*mpmb.Query, error) {
	out := &mpmb.Query{}
	set := false
	if *q.AnchorL != -1 {
		v, err := vertexID(*q.AnchorL)
		if err != nil {
			return nil, fmt.Errorf("flag -anchor-l: %w", err)
		}
		out.AnchorL = &v
		set = true
	}
	if *q.AnchorR != -1 {
		v, err := vertexID(*q.AnchorR)
		if err != nil {
			return nil, fmt.Errorf("flag -anchor-r: %w", err)
		}
		out.AnchorR = &v
		set = true
	}
	if *q.AnchorEdge != "" {
		e, err := ParseEdgeAnchor(*q.AnchorEdge)
		if err != nil {
			return nil, fmt.Errorf("flag -anchor-edge: %w", err)
		}
		out.AnchorEdge = e
		set = true
	}
	if *q.Communities != "" {
		c, err := ParseCommunities(*q.Communities)
		if err != nil {
			return nil, fmt.Errorf("flag -communities: %w", err)
		}
		c.TopK = *q.CommunityTopK
		out.Community = c
		set = true
	} else if *q.CommunityTopK != 0 {
		return nil, fmt.Errorf("flag -community-topk: requires -communities")
	}
	if *q.AdaptivePrep {
		out.AdaptivePrep = true
		set = true
	}
	if !set {
		return nil, nil
	}
	return out, nil
}

// vertexID converts a vertex id given on the command line, which must
// fit a VertexID rather than wrap around 2³².
func vertexID(id int) (mpmb.VertexID, error) {
	if id < 0 || id > math.MaxUint32 {
		return 0, fmt.Errorf("vertex id %d outside [0,%d]", id, uint32(math.MaxUint32))
	}
	return mpmb.VertexID(id), nil
}

// ParseEdgeAnchor parses the "u:v" spelling of an edge anchor.
func ParseEdgeAnchor(s string) (*mpmb.EdgeAnchor, error) {
	u, v, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("%q is not of the form u:v", s)
	}
	ui, err := strconv.Atoi(strings.TrimSpace(u))
	uv, errU := vertexID(ui)
	if err != nil || errU != nil {
		return nil, fmt.Errorf("left endpoint %q is not a vertex id", u)
	}
	vi, err := strconv.Atoi(strings.TrimSpace(v))
	vv, errV := vertexID(vi)
	if err != nil || errV != nil {
		return nil, fmt.Errorf("right endpoint %q is not a vertex id", v)
	}
	return &mpmb.EdgeAnchor{U: uv, V: vv}, nil
}

// ParseCommunities parses the "l0,l1,.../r0,r1,..." label spec.
func ParseCommunities(s string) (*mpmb.Communities, error) {
	l, r, ok := strings.Cut(s, "/")
	if !ok {
		return nil, fmt.Errorf("%q lacks the '/' between left and right labels", s)
	}
	parse := func(side, what string) ([]int, error) {
		parts := strings.Split(side, ",")
		out := make([]int, 0, len(parts))
		for _, p := range parts {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			n, err := strconv.Atoi(p)
			if err != nil {
				return nil, fmt.Errorf("%s label %q is not an integer", what, p)
			}
			if n < -1 {
				return nil, fmt.Errorf("%s label %d below -1 (which means excluded)", what, n)
			}
			out = append(out, n)
		}
		return out, nil
	}
	lv, err := parse(l, "left")
	if err != nil {
		return nil, err
	}
	rv, err := parse(r, "right")
	if err != nil {
		return nil, err
	}
	return &mpmb.Communities{L: lv, R: rv}, nil
}
