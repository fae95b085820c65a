package cache

import (
	"fmt"
	"math/rand"

	"pinbcast/internal/core"
)

// AccessConfig drives a cache simulation against a broadcast program: a
// client issues a Zipf-distributed query stream over the program's
// files; hits are served from cache instantly, misses block until the
// file's reconstruction threshold of blocks has passed on the channel.
type AccessConfig struct {
	Program  *core.Program
	Capacity int
	Policy   Policy
	Queries  int
	// ZipfS is the Zipf skew parameter (> 1); rank 0 is the hottest
	// file in this client's access pattern.
	ZipfS float64
	// Ranking maps Zipf rank to file index. Nil means rank r accesses
	// file r. A client whose ranking disagrees with the broadcast
	// frequency profile models the population-vs-individual mismatch
	// that motivates frequency-aware caching.
	Ranking []int
	Seed    int64
}

// AccessReport summarizes a cache simulation.
type AccessReport struct {
	Policy      string
	Queries     int
	Hits        int
	MeanLatency float64 // slots per query, hits counting 0
	MaxLatency  int
}

// HitRatio returns hits/queries.
func (r *AccessReport) HitRatio() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Queries)
}

// SimulateAccess runs the query stream and reports hit ratio and
// latency.
func SimulateAccess(cfg AccessConfig) (*AccessReport, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("cache: no program")
	}
	if cfg.Queries < 1 {
		return nil, fmt.Errorf("cache: no queries")
	}
	if cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("cache: Zipf skew must exceed 1")
	}
	c, err := New(cfg.Capacity, cfg.Policy)
	if err != nil {
		return nil, err
	}
	ranking := cfg.Ranking
	if ranking == nil {
		ranking = make([]int, len(cfg.Program.Files))
		for i := range ranking {
			ranking[i] = i
		}
	}
	if len(ranking) != len(cfg.Program.Files) {
		return nil, fmt.Errorf("cache: ranking has %d entries for %d files",
			len(ranking), len(cfg.Program.Files))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Program.Files)-1))

	rep := &AccessReport{Policy: cfg.Policy.Name(), Queries: cfg.Queries}
	now := 0
	for q := 0; q < cfg.Queries; q++ {
		file := ranking[int(zipf.Uint64())]
		name := cfg.Program.Files[file].Name
		if c.Get(name) {
			rep.Hits++
			now++ // query processing consumes one slot
			continue
		}
		lat := retrievalLatency(cfg.Program, file, now)
		rep.MeanLatency += float64(lat)
		if lat > rep.MaxLatency {
			rep.MaxLatency = lat
		}
		now += lat
		c.Put(name)
	}
	rep.MeanLatency /= float64(cfg.Queries)
	return rep, nil
}

// retrievalLatency returns the number of slots from `from` until the
// file's M-th block occurrence has passed (fault-free retrieval).
func retrievalLatency(p *core.Program, file, from int) int {
	return p.Index().Wait(file, from, p.Files[file].M)
}

// BroadcastFrequencies returns the per-file slot counts per period of a
// program, the x of the PIX policy.
func BroadcastFrequencies(p *core.Program) map[string]float64 {
	out := make(map[string]float64, len(p.Files))
	for i, f := range p.Files {
		out[f.Name] = float64(p.PerPeriod(i))
	}
	return out
}
