package obs

import (
	"context"
	"math"
)

// Parent-span plumbing: when the cluster coordinator fans a job out, every
// sub-job submission carries the coordinator-side attempt span ID in an
// X-Parent-Span header (next to the propagated X-Request-ID). The worker
// threads it through context onto the job record, its log lines and its
// trace/profile bodies, so a stitched cluster trace can pin each worker
// trace under the exact coordinator attempt that produced it.

// ParentSpanHeader is the HTTP header carrying the submitting side's span
// ID on fan-out requests.
const ParentSpanHeader = "X-Parent-Span"

type spanCtxKey struct{}

// WithParentSpan attaches a parent span ID to the context.
func WithParentSpan(ctx context.Context, span string) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, span)
}

// ParentSpan returns the context's parent span ID, or "".
func ParentSpan(ctx context.Context) string {
	span, _ := ctx.Value(spanCtxKey{}).(string)
	return span
}

// Node is one span in a stitched cross-process trace tree: the coordinator
// job at the root, its plan/fanout/merge stages below, sub-job attempts
// below the fan-out, and each successful attempt's worker stages at the
// leaves. StartMS is relative to the node's parent window (worker clocks
// are not comparable to the coordinator's, so offsets only make sense one
// level at a time); DurationMS is the node's own wall time.
type Node struct {
	Name       string  `json:"name"`
	SpanID     string  `json:"span,omitempty"`
	Status     string  `json:"status,omitempty"` // attempts: ok | lost | failed | canceled; the root: its job status; "" = structural
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
	Children   []*Node `json:"children,omitempty"`
}

// Depth returns the number of levels in the subtree rooted at n (a leaf
// has depth 1).
func (n *Node) Depth() int {
	d := 0
	for _, c := range n.Children {
		if cd := c.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

// SumChildrenMS returns the summed duration of n's direct children.
func (n *Node) SumChildrenMS() float64 {
	var sum float64
	for _, c := range n.Children {
		sum += c.DurationMS
	}
	return sum
}

// TileError reports how well n's direct children tile its own window: the
// relative mismatch |sum(children) − duration| / duration. Zero means the
// children partition the parent exactly; it is only meaningful for nodes
// whose children are sequential (stage lists), not for concurrent fan-out
// children. A node with no children or no wall time reports 0.
func (n *Node) TileError() float64 {
	if len(n.Children) == 0 || n.DurationMS <= 0 {
		return 0
	}
	return math.Abs(n.SumChildrenMS()-n.DurationMS) / n.DurationMS
}

// Walk calls fn for every node in the subtree in depth-first pre-order.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}
