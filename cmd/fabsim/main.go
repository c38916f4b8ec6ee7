// fabsim exercises the fabric at the Verbs level, independent of MPI: it
// prints the cost-model parameters and sweeps raw RDMA write/read latency,
// bandwidth, and gather-descriptor costs — the "Contig" reference numbers
// the paper's figures are judged against.
//
//	go run ./cmd/fabsim                # deterministic simulator (virtual time)
//	go run ./cmd/fabsim -backend shm   # the simulator's shared-memory transport
//	go run ./cmd/fabsim -backend rt    # real-time concurrent fabric (wall time)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ib"
	"repro/internal/mem"
	"repro/internal/rtfab"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/verbs"
)

var (
	backend  = flag.String("backend", "sim", `fabric backend: "sim" (deterministic), "rt" (real-time concurrent), or "shm" (the simulator's shared-memory intra-node transport)`)
	doTrace  = flag.Bool("trace", false, "record activity traces and print a busy-time summary at the end")
	traceOut = flag.String("trace-out", "", "with -trace: also write Chrome trace-event JSON here")
)

// tracer is non-nil when -trace is set; the measurement helpers attach it to
// every fabric they build.
var tracer *trace.Recorder

func main() {
	flag.Parse()
	if *backend != "sim" && *backend != "rt" && *backend != "shm" {
		fmt.Fprintf(os.Stderr, "fabsim: unknown backend %q (want sim, rt or shm)\n", *backend)
		os.Exit(2)
	}
	if *doTrace {
		tracer = trace.New()
	}
	if *backend == "rt" {
		runRTSweep()
		flushTrace()
		return
	}
	if *backend == "shm" {
		runSHMSweep()
		flushTrace()
		return
	}

	model := ib.DefaultModel()
	fmt.Println("# cost model (DESIGN.md section 5)")
	fmt.Printf("wire latency        %v\n", model.WireLatency)
	fmt.Printf("link bandwidth      %.2f GB/s\n", model.LinkGBps)
	fmt.Printf("copy bandwidth      %.2f GB/s (+%v per contiguous run)\n", model.CopyGBps, model.CopyBlockStartup)
	fmt.Printf("descriptor post     %v (list entries %v, per SGE %v)\n", model.PostCost, model.ListPostEntry, model.SGEPost)
	fmt.Printf("NIC per descriptor  %v (per SGE %v)\n", model.NICDescCost, model.NICSGECost)
	fmt.Printf("registration        %v + %v/page; dereg %v + %v/page\n",
		model.RegBase, model.RegPerPage, model.DeregBase, model.DeregPerPage)
	fmt.Printf("malloc              %v + %v/page\n", model.MallocBase, model.MallocPerPage)
	fmt.Printf("RDMA read turnaround %v; max SGE %d\n\n", model.ReadTurnaround, model.MaxSGE)

	fmt.Println("# raw RDMA write/read completion latency and effective bandwidth")
	fmt.Printf("%10s %14s %14s %14s\n", "bytes", "write (us)", "read (us)", "write MB/s")
	for _, size := range []int64{256, 4 << 10, 64 << 10, 512 << 10, 4 << 20} {
		w := oneOp(model, false, ib.OpRDMAWrite, size, 1)
		r := oneOp(model, false, ib.OpRDMARead, size, 1)
		mbps := float64(size) / (1 << 20) / w.Seconds()
		fmt.Printf("%10d %14.2f %14.2f %14.1f\n", size, w.Micros(), r.Micros(), mbps)
	}

	fmt.Println("\n# gather write: one descriptor, varying SGE count (64 KB total)")
	fmt.Printf("%6s %14s\n", "SGEs", "latency (us)")
	for _, n := range []int{1, 4, 16, 64} {
		d := oneOp(model, false, ib.OpRDMAWrite, 64<<10, n)
		fmt.Printf("%6d %14.2f\n", n, d.Micros())
	}
	flushTrace()
}

// flushTrace prints the busy-time summary (and writes the Chrome JSON) when
// -trace was requested.
func flushTrace() {
	if tracer == nil {
		return
	}
	fmt.Println("\n# busy-time summary (-trace)")
	fmt.Print(tracer.Summary())
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, tracer.ChromeTrace(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fabsim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d events; load via chrome://tracing or ui.perfetto.dev)\n",
			*traceOut, tracer.Len())
	}
}

// runSHMSweep is the raw RDMA sweep on the simulator's shared-memory
// transport: the same write/read and gather measurements as the wire path,
// in deterministic virtual time under the zero-link cost profile. With no
// responder turnaround, write and read columns coincide.
func runSHMSweep() {
	model := ib.DefaultSharedModel()
	fmt.Println("# shared-memory cost model (DESIGN.md section 15)")
	fmt.Printf("copy bandwidth      %.2f GB/s (+%v per contiguous run)\n", model.CopyGBps, model.CopyBlockStartup)
	fmt.Printf("descriptor post     %v (list entries %v, per SGE %v)\n", model.PostCost, model.ListPostEntry, model.SGEPost)
	fmt.Printf("registration        %v + %v/page; dereg %v + %v/page\n",
		model.RegBase, model.RegPerPage, model.DeregBase, model.DeregPerPage)
	fmt.Printf("no link terms: wire latency %v, link bandwidth %.0f, read turnaround %v; max SGE %d\n\n",
		model.WireLatency, model.LinkGBps, model.ReadTurnaround, model.MaxSGE)

	fmt.Println("# raw copy-transfer completion latency and effective bandwidth")
	fmt.Printf("%10s %14s %14s %14s\n", "bytes", "write (us)", "read (us)", "write MB/s")
	for _, size := range []int64{256, 4 << 10, 64 << 10, 512 << 10, 4 << 20} {
		w := oneOp(model, true, verbs.OpRDMAWrite, size, 1)
		r := oneOp(model, true, verbs.OpRDMARead, size, 1)
		mbps := float64(size) / (1 << 20) / w.Seconds()
		fmt.Printf("%10d %14.2f %14.2f %14.1f\n", size, w.Micros(), r.Micros(), mbps)
	}

	fmt.Println("\n# gather write: one descriptor, varying SGE count (64 KB total)")
	fmt.Printf("%6s %14s\n", "SGEs", "latency (us)")
	for _, n := range []int{1, 4, 16, 64} {
		d := oneOp(model, true, verbs.OpRDMAWrite, 64<<10, n)
		fmt.Printf("%6d %14.2f\n", n, d.Micros())
	}
}

// runRTSweep is the raw RDMA sweep on the real-time backend: the same
// write/read and gather measurements as the simulator path, but timed with
// the wall clock over many iterated operations.
func runRTSweep() {
	model := ib.DefaultModel()
	const iters = 400
	fmt.Printf("# raw RDMA wall-clock latency on the real-time backend (%d ops averaged)\n", iters)
	fmt.Printf("%10s %14s %14s %14s\n", "bytes", "write (us)", "read (us)", "write MB/s")
	for _, size := range []int64{256, 4 << 10, 64 << 10, 512 << 10, 4 << 20} {
		w := rtOneOp(model, verbs.OpRDMAWrite, size, 1, iters)
		r := rtOneOp(model, verbs.OpRDMARead, size, 1, iters)
		mbps := float64(size) / (1 << 20) / w.Seconds()
		fmt.Printf("%10d %14.2f %14.2f %14.1f\n", size,
			float64(w.Nanoseconds())/1e3, float64(r.Nanoseconds())/1e3, mbps)
	}

	fmt.Println("\n# gather write: one descriptor, varying SGE count (64 KB total)")
	fmt.Printf("%6s %14s\n", "SGEs", "latency (us)")
	for _, n := range []int{1, 4, 16, 64} {
		d := rtOneOp(model, verbs.OpRDMAWrite, 64<<10, n, iters)
		fmt.Printf("%6d %14.2f\n", n, float64(d.Nanoseconds())/1e3)
	}
}

// rtOneOp measures the average wall-clock completion time of an RDMA
// operation on a two-node real-time fabric, amortized over iters sequential
// posts so that fabric start/stop cost drops out of the per-op number.
func rtOneOp(model verbs.Model, op verbs.Opcode, size int64, n, iters int) time.Duration {
	f := rtfab.New(model)
	if tracer != nil {
		tracer.SetPrefix(fmt.Sprintf("rt/%v-%dB-%dsge/", op, size, n))
		f.SetTracer(tracer)
	}
	ma := mem.NewMemory("a", size*2+8<<20)
	mb := mem.NewMemory("b", size*2+8<<20)
	na := f.AddNode("a", ma, nil)
	nb := f.AddNode("b", mb, nil)
	aSend, aRecv := na.NewCQ(), na.NewCQ()
	bSend, bRecv := nb.NewCQ(), nb.NewCQ()
	qa, _ := na.Connect(nb, aSend, aRecv, bSend, bRecv)

	per := size / int64(n)
	sgl := make([]verbs.SGE, n)
	for i := range sgl {
		a := ma.MustAlloc(per)
		reg, err := ma.Reg().Register(a, per)
		if err != nil {
			panic(err)
		}
		sgl[i] = verbs.SGE{Addr: a, Len: per, Key: reg.LKey}
	}
	remote := mb.MustAlloc(size)
	rreg, err := mb.Reg().Register(remote, size)
	if err != nil {
		panic(err)
	}

	na.Engine().Spawn("driver", func(p *simtime.Process) {
		for i := 0; i < iters; i++ {
			wr := verbs.SendWR{Op: op, SGL: sgl, RemoteAddr: remote, RKey: rreg.RKey}
			if err := qa.PostSend(wr); err != nil {
				panic(err)
			}
			if e := aSend.WaitPoll(p); e.Err != nil {
				panic(e.Err)
			}
		}
	})
	start := time.Now()
	if err := f.Run(time.Minute); err != nil {
		panic(err)
	}
	return time.Since(start) / time.Duration(iters)
}

// oneOp measures the virtual completion time of a single RDMA operation of
// the given total size split across n scatter/gather entries, between two
// nodes of a wire fabric or, when shared is set, two partitions of a shared
// fabric.
func oneOp(model ib.Model, shared bool, op ib.Opcode, size int64, n int) simtime.Duration {
	eng := simtime.NewEngine()
	nodeBytes := size*2 + 8<<20
	var fab *ib.Fabric
	var ma, mb *mem.Memory // nil on a shared fabric: the arena supplies them
	prefix := "sim"
	if shared {
		fab, prefix = ib.NewSharedFabric(eng, model, 2, nodeBytes), "shm"
	} else {
		fab = ib.NewFabric(eng, model)
		ma, mb = mem.NewMemory("a", nodeBytes), mem.NewMemory("b", nodeBytes)
	}
	if tracer != nil {
		tracer.SetPrefix(fmt.Sprintf("%s/%v-%dB-%dsge/", prefix, op, size, n))
		fab.SetTracer(tracer)
	}
	ha := fab.AddHCA("a", ma, nil)
	hb := fab.AddHCA("b", mb, nil)
	ma, mb = ha.Mem(), hb.Mem()
	aSend, aRecv := ib.NewCQ(ha), ib.NewCQ(ha)
	bSend, bRecv := ib.NewCQ(hb), ib.NewCQ(hb)
	qa, _ := ib.Connect(ha, hb, aSend, aRecv, bSend, bRecv)

	per := size / int64(n)
	sgl := make([]ib.SGE, n)
	for i := range sgl {
		a := ma.MustAlloc(per)
		reg, err := ma.Reg().Register(a, per)
		if err != nil {
			panic(err)
		}
		sgl[i] = ib.SGE{Addr: a, Len: per, Key: reg.LKey}
	}
	remote := mb.MustAlloc(size)
	rreg, err := mb.Reg().Register(remote, size)
	if err != nil {
		panic(err)
	}

	var done simtime.Time
	aSend.SetHandler(func(e ib.CQE) {
		if e.Err != nil {
			panic(e.Err)
		}
		done = eng.Now()
	})
	if err := qa.PostSend(ib.SendWR{Op: op, SGL: sgl, RemoteAddr: remote, RKey: rreg.RKey}); err != nil {
		panic(err)
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return done.Sub(0)
}
