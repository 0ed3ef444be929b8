// Command lsra-corpus manages mmap-streamable corpus files of binary IR
// programs (internal/corpus): the input side of the million-program
// throughput ladder.
//
//	lsra-corpus gen -o corpus.lsco -n 100000 -seed 1 -profiles all -shards 16
//	lsra-corpus info corpus.lsco
//	lsra-corpus verify "corpus.*.lsco"
//
// gen writes Count seeded random programs (program i uses seed base+i,
// profiles cycled), so a corpus is fully reproducible from its meta
// string; with -shards N it writes the set corpus.0000.lsco …
// corpus.NNNN.lsco instead of one file. info and verify accept a single
// file, a shard-set base name, or a glob over members. verify decodes
// every frame and runs full semantic validation — the integrity check
// for corpora that crossed machines — with shards verified in parallel
// across -jobs goroutines.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	regalloc "repro"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/irbin"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsra-corpus:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lsra-corpus gen -o <file> -n <count> [-seed N] [-profiles all|a,b,...] [-machine M] [-shards S] [-jobs J]
  lsra-corpus info <file|set-base|glob>
  lsra-corpus verify [-jobs J] <file|set-base|glob>`)
	os.Exit(2)
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		out      = fs.String("o", "corpus.lsco", "output file (or shard-set base name with -shards)")
		n        = fs.Int("n", 100000, "number of programs")
		seed     = fs.Int64("seed", 1, "base seed; program i uses seed+i")
		profiles = fs.String("profiles", "all", "comma-separated generator profiles, or all")
		machine  = fs.String("machine", "alpha", "machine the generator shapes programs for")
		shards   = fs.Int("shards", 1, "shard-set member count (1 = single file)")
		jobs     = fs.Int("jobs", runtime.GOMAXPROCS(0), "parallel generator goroutines")
	)
	fs.Parse(args)
	mach, err := regalloc.ParseMachine(*machine)
	if err != nil {
		return err
	}
	var names []string
	if *profiles != "all" {
		names = strings.Split(*profiles, ",")
	}
	err = corpus.Generate(*out, corpus.GenOptions{
		Count:    *n,
		Seed:     *seed,
		Profiles: names,
		Machine:  mach,
		Workers:  *jobs,
		Shards:   *shards,
	})
	if err != nil {
		return err
	}
	r, err := corpus.OpenSet(*out)
	if err != nil {
		return err
	}
	defer r.Close()
	fmt.Printf("wrote %s: %d programs in %d shard(s), %d bytes (%.1f bytes/program)\n",
		*out, r.Count(), r.Shards(), r.Size(), float64(r.Size())/float64(max(r.Count(), 1)))
	return nil
}

func runInfo(args []string) error {
	if len(args) != 1 {
		usage()
	}
	r, err := corpus.OpenSet(args[0])
	if err != nil {
		return err
	}
	defer r.Close()
	fmt.Printf("set:      %s\n", args[0])
	fmt.Printf("shards:   %d\n", r.Shards())
	fmt.Printf("programs: %d\n", r.Count())
	fmt.Printf("size:     %d bytes", r.Size())
	if r.Count() > 0 {
		fmt.Printf(" (%.1f bytes/program)", float64(r.Size())/float64(r.Count()))
	}
	fmt.Println()
	fmt.Printf("meta:     %s\n", r.Meta())
	for i := 0; i < r.Shards(); i++ {
		sh := r.Shard(i)
		fmt.Printf("  %s: %d programs, %d bytes\n", r.Path(i), sh.Count(), sh.Size())
	}
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "shards verified concurrently")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	r, err := corpus.OpenSet(fs.Arg(0))
	if err != nil {
		return err
	}
	defer r.Close()

	// Shards are the parallelism unit: each worker owns one arena and
	// verifies whole members, so frames never share decode storage.
	var (
		instrs  atomic.Int64
		wg      sync.WaitGroup
		next    atomic.Int64
		errOnce sync.Once
		vErr    error
	)
	nw := min(max(*jobs, 1), r.Shards())
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := irbin.NewArena()
			for {
				s := int(next.Add(1)) - 1
				if s >= r.Shards() {
					return
				}
				n, err := verifyShard(r.Shard(s), arena)
				if err != nil {
					errOnce.Do(func() { vErr = fmt.Errorf("%s: %w", r.Path(s), err) })
					return
				}
				instrs.Add(n)
			}
		}()
	}
	wg.Wait()
	if vErr != nil {
		return vErr
	}
	fmt.Printf("ok: %d programs in %d shard(s), %d instructions\n", r.Count(), r.Shards(), instrs.Load())
	return nil
}

// verifyShard decodes and semantically validates every frame of one
// member, returning its instruction count.
func verifyShard(sh *corpus.Reader, arena *irbin.Arena) (int64, error) {
	var instrs int64
	for i := 0; i < sh.Count(); i++ {
		prog, err := sh.Decode(i, arena)
		if err != nil {
			return 0, err
		}
		if err := ir.ValidateProgram(prog, nil); err != nil {
			return 0, fmt.Errorf("program %d: %w", i, err)
		}
		for _, p := range prog.Procs {
			instrs += int64(p.NumInstrs())
		}
	}
	return instrs, nil
}
