// Command cosmos-trace inspects a workload's memory access stream without
// simulating a machine: footprint, read/write mix, per-region breakdown,
// stride distribution and line-reuse statistics. Useful for understanding
// why a workload behaves the way it does in the CTR cache.
//
//	cosmos-trace -workload DFS -accesses 500000
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"cosmos/cmd/internal/cliflags"
	"cosmos/internal/memsys"
	"cosmos/internal/obs"
	"cosmos/internal/stats"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "DFS", "workload ("+strings.Join(workloads.AllNames(), ", ")+")")
		accesses = flag.Uint64("accesses", 500_000, "accesses to sample")
		nodes    = flag.Int("graph-nodes", 0, "graph vertices (0 = default)")
		degree   = flag.Int("graph-degree", 0, "graph degree (0 = default)")
		seed     = flag.Uint64("seed", 42, "seed")
		dump     = flag.Uint64("dump", 0, "print the first N raw accesses")
		export   = flag.String("export", "", "write the sampled accesses to a trace file (.trc or .trc.gz) instead of profiling")

		obsFlags = cliflags.RegisterObs(flag.CommandLine)
	)
	flag.Parse()

	logger, err := obsFlags.Logger("cosmos-trace")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-trace:", err)
		os.Exit(1)
	}
	die := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}
	if *accesses == 0 {
		die("validate flags", fmt.Errorf("-accesses must be positive: nothing to sample"))
	}

	// SIGINT/SIGTERM stop the sampling loop; the profile of the accesses
	// gathered so far still prints.
	ctx, stopSignals := cliflags.SignalContext(0)
	defer stopSignals()
	done := ctx.Done()

	gen, err := workloads.Build(*workload, workloads.Options{
		Threads: 4, Seed: *seed, GraphNodes: *nodes, GraphDegree: *degree,
	})
	if err != nil {
		die("build workload", err)
	}
	defer trace.CloseIfCloser(gen)

	var (
		reads, writes uint64
	)

	// The profiler's registry: live progress of the sampling loop on the
	// plane. The loop is single-writer; scrapes read the counters torn-read
	// tolerantly (see DESIGN.md §8).
	reg := telemetry.NewRegistry()
	sc := reg.Scope("trace")
	sc.Counter("reads", &reads)
	sc.Counter("writes", &writes)
	sc.CounterFunc("accesses_sampled", func() uint64 { return reads + writes })
	stopPlane, err := obsFlags.Serve(obs.Config{Component: "cosmos-trace", Registry: reg, Logger: logger})
	if err != nil {
		die("observability plane", err)
	}
	defer stopPlane()

	if *export != "" {
		n, err := trace.WriteFile(*export, gen, *accesses)
		if err != nil {
			die("export trace", err)
		}
		fmt.Printf("wrote %d accesses of %s to %s\n", n, *workload, *export)
		return
	}

	var (
		lines        = map[uint64]uint64{} // line → touch count
		ctrBlocks    = map[uint64]bool{}
		perRegion    = map[uint16]uint64{}
		perThread    = map[uint8]uint64{}
		lastByThread = map[uint8]uint64{}
		seq, jumps   uint64
	)
	var buf [4096]memsys.Access
sampling:
	for i := uint64(0); i < *accesses; {
		select {
		case <-done:
			logger.Warn("interrupted; profiling what was sampled", "accesses", i)
			break sampling
		default:
		}
		m := gen.NextBlock(buf[:min(*accesses-i, uint64(len(buf)))])
		if m == 0 {
			break
		}
		for _, a := range buf[:m] {
			if i < *dump {
				fmt.Println(a)
			}
			i++
			if a.Type == memsys.Write {
				writes++
			} else {
				reads++
			}
			line := a.Addr.Line()
			lines[line]++
			ctrBlocks[line/128] = true
			perRegion[a.Region]++
			perThread[a.Thread]++
			if last, ok := lastByThread[a.Thread]; ok {
				switch {
				case line == last || line == last+1:
					seq++
				default:
					jumps++
				}
			}
			lastByThread[a.Thread] = line
		}
	}
	if err := trace.Err(gen); err != nil {
		die("profile", err)
	}
	total := reads + writes
	if total == 0 {
		die("profile", fmt.Errorf("workload produced no accesses"))
	}

	reuse := uint64(0)
	maxTouch := uint64(0)
	for _, c := range lines {
		if c > 1 {
			reuse += c - 1
		}
		if c > maxTouch {
			maxTouch = c
		}
	}

	t := stats.NewTable(fmt.Sprintf("trace profile: %s", *workload), "metric", "value")
	t.Row("accesses", total)
	t.Row("reads / writes", fmt.Sprintf("%d / %d (%.1f%% writes)", reads, writes, 100*float64(writes)/float64(total)))
	t.Row("distinct lines", len(lines))
	t.Row("footprint", memsys.Bytes(uint64(len(lines))*memsys.LineSize))
	t.Row("distinct CTR blocks (1:128)", len(ctrBlocks))
	t.Row("ctr metadata footprint", memsys.Bytes(uint64(len(ctrBlocks))*memsys.LineSize))
	t.Row("line reuse fraction", stats.Pct(float64(reuse)/float64(total)))
	t.Row("hottest line touches", maxTouch)
	t.Row("sequential-step share", stats.Pct(float64(seq)/float64(seq+jumps)))
	t.Row("threads", len(perThread))
	t.Write(os.Stdout)

	type rc struct {
		region uint16
		count  uint64
	}
	var regions []rc
	for r, c := range perRegion {
		regions = append(regions, rc{r, c})
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i].count > regions[j].count })
	rt := stats.NewTable("per-region access share", "region-sig", "accesses", "share")
	for _, r := range regions {
		rt.Row(r.region, r.count, stats.Pct(float64(r.count)/float64(total)))
	}
	rt.Write(os.Stdout)
}
