package xver

import "github.com/ormkit/incmap/internal/cqt"

// ReadViews exposes the compiled cross-read views to the external tests,
// which evaluate them with the reference evaluator.
func (p *Plan) ReadViews() (sets, assocs map[string]*cqt.View) {
	return p.readViews, p.assocViews
}
