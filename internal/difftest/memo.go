package difftest

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modelio"
)

// CheckMemo holds a generation's encodings, assembled from its entry
// records (internal/modelio), to those of its DeepClone. The deep copy
// shares no entry and has no frozen ancestor, so every one of its records
// is encoded afresh: a record that outlived a write to its entry, or one
// found under another entry's identity, shows as a byte difference. It
// also checks that the generation payload is exactly as long as its
// records say and that HashMapping hashes what AppendMapping writes.
func CheckMemo(m *frag.Mapping, v *frag.Views) error {
	got, err := modelio.AppendMapping(nil, m)
	if err != nil {
		return fmt.Errorf("memo: AppendMapping: %w", err)
	}
	want, err := modelio.AppendMapping(nil, m.DeepClone())
	if err != nil {
		return fmt.Errorf("memo: AppendMapping of the deep copy: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("memo: mapping encodes differently from its deep copy: %s", firstDiff(got, want))
	}
	gotV, err := modelio.AppendViews(nil, v)
	if err != nil {
		return fmt.Errorf("memo: AppendViews: %w", err)
	}
	wantV, err := modelio.AppendViews(nil, v.DeepClone())
	if err != nil {
		return fmt.Errorf("memo: AppendViews of the deep copy: %w", err)
	}
	if !bytes.Equal(gotV, wantV) {
		return fmt.Errorf("memo: views encode differently from their deep copy: %s", firstDiff(gotV, wantV))
	}
	p, err := modelio.EncodeGeneration(m, v)
	if err != nil {
		return fmt.Errorf("memo: EncodeGeneration: %w", err)
	}
	payload := p.AppendTo(nil)
	if wantP := fmt.Sprintf(`{"mapping":%s,"views":%s}`, want, wantV); string(payload) != wantP || p.Len() != len(wantP) {
		return fmt.Errorf("memo: generation payload of %d bytes (Len %d), want %d", len(payload), p.Len(), len(wantP))
	}
	h := sha256.New()
	if err := modelio.HashMapping(h, m); err != nil {
		return fmt.Errorf("memo: HashMapping: %w", err)
	}
	if sum := sha256.Sum256(want); !bytes.Equal(h.Sum(nil), sum[:]) {
		return fmt.Errorf("memo: HashMapping does not hash the mapping document")
	}
	return nil
}

// CheckDelta writes the generation (m, v) as a delta against the
// generation (bm, bv) and holds the payload modelio.ApplyDelta rebuilds
// from the base's payload to the one EncodeGeneration writes for (m, v),
// byte for byte. It returns the delta.
func CheckDelta(bm *frag.Mapping, bv *frag.Views, m *frag.Mapping, v *frag.Views) ([]byte, error) {
	base, err := modelio.EncodeGeneration(bm, bv)
	if err != nil {
		return nil, fmt.Errorf("delta: EncodeGeneration of the base: %w", err)
	}
	p, err := modelio.EncodeGeneration(m, v)
	if err != nil {
		return nil, fmt.Errorf("delta: EncodeGeneration: %w", err)
	}
	delta, err := modelio.AppendDelta(nil, "00112233445566778899aabbccddeeff", strings.Repeat("0", 64), bm, bv, m, v, modelio.NoLimit)
	if err != nil {
		return nil, fmt.Errorf("delta: AppendDelta: %w", err)
	}
	if !json.Valid(delta) {
		return nil, fmt.Errorf("delta: not valid JSON: %.200s", delta)
	}
	got, err := modelio.ApplyDelta(base.AppendTo(nil), delta)
	if err != nil {
		return nil, fmt.Errorf("delta: ApplyDelta: %w", err)
	}
	if want := p.AppendTo(nil); !bytes.Equal(got, want) {
		return nil, fmt.Errorf("delta: the rebuilt payload differs from the generation's: %s", firstDiff(got, want))
	}
	return delta, nil
}

// firstDiff describes where two encodings part.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(i-40, 0)
	return fmt.Sprintf("at byte %d: got …%s…, want …%s…", i, got[from:min(i+40, len(got))], want[from:min(i+40, len(want))])
}
