package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"

	"fcdpm/internal/config"
	"fcdpm/internal/runreport"
	"fcdpm/internal/sim"
)

// expect is the oracle's answer for one spec: its content address and
// the report body every serving surface must return byte for byte
// (without the trailing newline the HTTP layer adds).
type expect struct {
	key  string
	body []byte
}

// oracleOne renders a spec's expected body on the scalar library path:
// LoadValidated, CacheKey, Build, sim.RunContext, runreport.Render,
// under the engine string of the binary being measured. Every spec the
// benchmark generates carries a name, which is the name each surface
// renders.
func oracleOne(ctx context.Context, spec []byte, engine string) (expect, error) {
	sc, err := config.LoadValidated(bytes.NewReader(spec))
	if err != nil {
		return expect{}, err
	}
	key, err := sc.CacheKey(engine)
	if err != nil {
		return expect{}, err
	}
	cfg, err := sc.Build()
	if err != nil {
		return expect{}, err
	}
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return expect{}, err
	}
	body, err := runreport.Render(sc.Name, key, engine, res)
	if err != nil {
		return expect{}, err
	}
	return expect{key: key, body: body}, nil
}

// oracleAll renders every spec on GOMAXPROCS goroutines.
func oracleAll(ctx context.Context, specs [][]byte, engine string) ([]expect, error) {
	out := make([]expect, len(specs))
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(specs); i += len(errs) {
				e, err := oracleOne(ctx, specs[i], engine)
				if err != nil {
					errs[w] = fmt.Errorf("oracle: spec %s: %w", specs[i], err)
					return
				}
				out[i] = e
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// oracleSet renders a spec set with duplicates, once per distinct spec.
type oracleSet map[string]expect

func newOracleSet(ctx context.Context, specs [][]byte, engine string) (oracleSet, error) {
	uniq := distinct(specs)
	exp, err := oracleAll(ctx, uniq, engine)
	if err != nil {
		return nil, err
	}
	set := make(oracleSet, len(uniq))
	for i, s := range uniq {
		set[string(s)] = exp[i]
	}
	return set, nil
}
