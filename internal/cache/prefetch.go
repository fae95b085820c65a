package cache

import (
	"fmt"
	"math/rand"

	"pinbcast/internal/core"
)

// Prefetching (Acharya, Franklin & Zdonik, ICDE '96, cited in §1 of the
// paper): a broadcast client sees every item go by whether it asked or
// not, so it can opportunistically *replace* a cached item with a
// passing one that is more valuable — value being, as in PIX, the
// item's access probability weighted by how expensive it is to get
// back later. Demand-only caching touches the cache on misses; a
// prefetching client re-evaluates on every broadcast slot.

// PrefetchConfig drives a prefetching cache simulation. Access
// probabilities are estimated online from the query stream, as in the
// demand-only simulator.
type PrefetchConfig struct {
	Program  *core.Program
	Capacity int
	Queries  int
	ZipfS    float64
	Ranking  []int
	Seed     int64
	// Prefetch enables opportunistic replacement; with false the run
	// degenerates to demand-only PIX, the natural baseline.
	Prefetch bool
}

// SimulatePrefetch runs a PIX-valued client with optional prefetching
// and reports the same metrics as SimulateAccess.
func SimulatePrefetch(cfg PrefetchConfig) (*AccessReport, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("cache: no program")
	}
	if cfg.Queries < 1 {
		return nil, fmt.Errorf("cache: no queries")
	}
	if cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("cache: Zipf skew must exceed 1")
	}
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("cache: capacity %d < 1", cfg.Capacity)
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
	freq := make([]float64, len(cfg.Program.Files))
	for i := range cfg.Program.Files {
		freq[i] = float64(cfg.Program.PerPeriod(i))
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Program.Files)-1))

	cached := map[int]bool{}
	accesses := make([]float64, len(cfg.Program.Files))
	value := func(f int) float64 { return accesses[f] / freq[f] }

	name := "PIX demand-only"
	if cfg.Prefetch {
		name = "PIX + prefetch"
	}
	rep := &AccessReport{Policy: name, Queries: cfg.Queries}
	now := 0
	for q := 0; q < cfg.Queries; q++ {
		file := ranking[int(zipf.Uint64())]
		accesses[file]++
		if cached[file] {
			rep.Hits++
			now++
			continue
		}
		// Miss: wait for the file on the air. While waiting, a
		// prefetching client re-evaluates every passing item.
		lat := retrievalLatency(cfg.Program, file, now)
		if cfg.Prefetch {
			for dt := 0; dt < lat; dt++ {
				passing := cfg.Program.FileAt(now + dt)
				if passing == core.Idle || cached[passing] || passing == file {
					continue
				}
				insertIfValuable(cached, passing, cfg.Capacity, value)
			}
		}
		rep.MeanLatency += float64(lat)
		if lat > rep.MaxLatency {
			rep.MaxLatency = lat
		}
		now += lat
		insertIfValuable(cached, file, cfg.Capacity, value)
	}
	rep.MeanLatency /= float64(cfg.Queries)
	return rep, nil
}

// insertIfValuable adds f to the cache, evicting the least valuable
// item if full — but only when f is strictly more valuable than the
// would-be victim.
func insertIfValuable(cached map[int]bool, f, capacity int, value func(int) float64) {
	if len(cached) < capacity {
		cached[f] = true
		return
	}
	victim, victimV := -1, 0.0
	for c := range cached {
		if v := value(c); victim < 0 || v < victimV {
			victim, victimV = c, v
		}
	}
	if value(f) > victimV {
		delete(cached, victim)
		cached[f] = true
	}
}
