package difftest

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/workload"
)

// pinnedCompiles are the sequential full compiles whose SatCache keys and
// view bytes are pinned below. SatCache keys embed the theory encoding of
// the client schema, and persisted snapshots are looked up by them; view
// bytes feed the generation fingerprint. A change to how the schema answers
// hierarchy or attribute questions that moves either digest invalidates
// every persisted snapshot and generation address. The key digest also
// pins which decisions reach the cache: type-only ones never do, and
// typeOnly marks a compile all of whose decisions are type-only.
var pinnedCompiles = []struct {
	name        string
	build       func() (*frag.Mapping, error)
	keys, views string
	typeOnly    bool
}{
	{"chain-40", func() (*frag.Mapping, error) { return workload.ChainE(40) },
		"6d78eb63cb57cded7d4d57615380b8129d52a569418577277c29ded8f9e935aa",
		"e429e73656828565ac2be0d03c6b1445d1facf830c2e0a9fabb9f884cd536bb4", false},
	{"customer-60", func() (*frag.Mapping, error) {
		return workload.CustomerE(workload.CustomerOptions{
			Types: 60, Hierarchies: 8, LargestTPH: 25, Associations: 8, SharedTableFKs: 2,
		})
	},
		"efcc0a3b063f90a851630e4f042dabbc70da450dcbb9538c6d690c4c9e1a4de3",
		"727aa0b5c0b6187f6a69a3354175fef18fb2e48e3adba9339cce9d75f9d75693", false},
	{"hubrim-tph-2x4", func() (*frag.Mapping, error) {
		return workload.HubRimE(workload.HubRimOptions{N: 2, M: 4, TPH: true})
	},
		"9dcf97a184f32623d11a73124ceb99a5709b083721e878a16d78f596718ba7b2",
		"d0cb8775a2586c130d115784395664a79972fc7d1ed39461acee28bb3b012c0f", true},
}

// satCacheDigest hashes the sorted verdict keys (with their verdicts) and
// the sorted lemma-scope keys of a SatCache.
func satCacheDigest(c *cond.SatCache) string {
	snap := c.Export()
	entries := make([]string, 0, len(snap.Entries))
	for k, sat := range snap.Entries {
		entries = append(entries, k+"="+strconv.FormatBool(sat))
	}
	sort.Strings(entries)
	scopes := make([]string, 0, len(snap.Scopes))
	for _, sc := range snap.Scopes {
		scopes = append(scopes, sc.Key)
	}
	sort.Strings(scopes)
	h := sha256.New()
	for _, list := range [][]string{entries, scopes} {
		for _, k := range list {
			h.Write([]byte(k))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPinnedSatCacheKeysAndViews(t *testing.T) {
	for _, pc := range pinnedCompiles {
		t.Run(pc.name, func(t *testing.T) {
			m, err := pc.build()
			if err != nil {
				t.Fatal(err)
			}
			cache := cond.NewSatCache()
			c := &compiler.Compiler{Opts: compiler.Options{Parallelism: 1, SatCache: cache}}
			v, err := c.Compile(m)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			vb, err := modelio.AppendViews(nil, v)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(vb)
			views := hex.EncodeToString(sum[:])
			keys := satCacheDigest(cache)
			if keys != pc.keys {
				t.Errorf("SatCache key digest = %s, want %s", keys, pc.keys)
			}
			if views != pc.views {
				t.Errorf("view digest = %s, want %s", views, pc.views)
			}
			snap, st := cache.Export(), cache.Stats()
			if st.TypeOnly == 0 {
				t.Errorf("no type-only decision: %+v", st)
			}
			if empty := len(snap.Entries) == 0 && len(snap.Scopes) == 0; empty != pc.typeOnly {
				t.Errorf("%d verdicts and %d lemma scopes cached; all decisions type-only: %v", len(snap.Entries), len(snap.Scopes), pc.typeOnly)
			}
		})
	}
}
