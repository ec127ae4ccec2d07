package trace

import "repro/internal/workload"

// Program adapts a recorded trace to the hierarchy's per-core stimulus
// interface: accesses come from the replayer, while block contents and
// versions are served by a content model — typically the same application
// the trace was recorded from, so contents stay consistent with the
// recorded address stream.
type Program struct {
	rep     *Replayer
	content ContentModel
}

// ContentModel serves block ownership, versions and contents for a
// replayed trace. *workload.App satisfies it.
type ContentModel interface {
	Owns(block uint64) bool
	BumpVersion(block uint64)
	// ContentInto writes the block's current 64-byte contents into dst
	// when its capacity suffices and returns the (possibly grown) slice.
	ContentInto(dst []byte, block uint64) []byte
}

// NewProgram pairs a replayer with a content model.
func NewProgram(rep *Replayer, content ContentModel) *Program {
	return &Program{rep: rep, content: content}
}

// Next implements hier.Program.
func (p *Program) Next() workload.Access { return p.rep.Next() }

// Owns implements hier.Program.
func (p *Program) Owns(block uint64) bool { return p.content.Owns(block) }

// BumpVersion implements hier.Program.
func (p *Program) BumpVersion(block uint64) { p.content.BumpVersion(block) }

// ContentInto implements hier.Program without allocating.
func (p *Program) ContentInto(dst []byte, block uint64) []byte {
	return p.content.ContentInto(dst, block)
}

// Err surfaces the replayer's sticky replay error (nil while healthy).
func (p *Program) Err() error { return p.rep.Err() }
