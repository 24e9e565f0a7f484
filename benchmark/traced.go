package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// Seconds of measured time the parts of a traced run get. They are fixed,
// not taken from -seconds: a traced run reports layer costs and counts, not
// the gated end-to-end numbers, and has to fit the driver's per-run limit
// with the whole probe suite in it.
const (
	twinSeconds    = 2 // each of the two twin journeys (traced, untraced)
	closureSeconds = 4 // each of the two process-level journeys the stack is closed against
)

// runTraced is -trace 1: the workload's in-process twin with spans on (and
// once more with spans off, for the overhead ratio), the whole per-layer
// probe suite, and two short process-level runs against which the stack is
// closed.
func runTraced(res *workloadResult, root, scratch string, in *inputs, opts options) error {
	out := make(map[string]float64)

	// 1. The twin, one client, one round, phases in sequence so that every
	// span lands on one stack.
	twin := func(tr *tracer) (*journey, error) {
		tin := *in
		tin.spec.Rounds, tin.spec.Mixed = 1, false
		var tgt target
		switch tin.spec.Depth {
		case "core":
			tgt = &coreTarget{in: &tin, dir: scratch}
		case "shard":
			tgt = &shardTarget{in: &tin, dir: scratch}
		default:
			tgt = newHandlerTarget(&tin, scratch, 2, tr) // the reader's slot and the writer's
		}
		j := newJourney(&tin, tgt, 1, twinSeconds*time.Second, tr)
		return j, j.run()
	}
	plain, err := twin(nil)
	if err != nil {
		return fmt.Errorf("untraced twin: %w", err)
	}
	tr := newTracer()
	traced, err := twin(tr)
	if err != nil {
		return fmt.Errorf("traced twin: %w", err)
	}
	if err := tr.write(filepath.Join(opts.Out, "trace-"+in.spec.Name+".json")); err != nil {
		return err
	}
	out["trace.overhead_ratio"] = plain.rounds[0].ReadQPS / traced.rounds[0].ReadQPS
	out["allocs_per_read"] = plain.readAllocs
	out["read_p99_us"], out["write_p99_us"] = plain.rounds[0].ReadP99us, plain.rounds[0].WriteP99us
	// note adds a finished journey's operations to the run's totals.
	note := func(j *journey) {
		a, f := j.ops()
		res.Attempted += a
		res.Failed += f
		if res.FirstError == "" && j.firstErr != nil {
			res.FirstError = j.firstErr.Error()
		}
	}
	note(plain)
	note(traced)

	// 2. The probe suite, on serve_read's inputs.
	scaled := func(name string) workloadSpec {
		w, _ := findWorkload(name)
		if opts.Scale == "smoke" {
			w = scaleSmoke(w)
		}
		return w
	}
	sin := in
	if in.spec.Name != "serve_read" {
		if sin, err = newInputs(scaled("serve_read"), opts.Seed); err != nil {
			return fmt.Errorf("preparing the probe fixture: %w", err)
		}
	}
	suite := &layerSuite{scratch: scratch, in: sin, data: sin.generate(), out: out}
	a, f, err := suite.run(scaled("crack_stream"), opts.Seed)
	if err != nil {
		return err
	}
	res.Attempted += a
	res.Failed += f
	suite.data = nil

	// 3. The stack is closed against the real thing: serve_read and
	// serve_mixed as processes, one short round each.
	process := func(name string) (*journey, error) {
		pin := *sin
		pin.spec = scaled(name)
		pin.spec.Rounds = 1
		tgt, err := newTarget(res, root, scratch, &pin)
		if err != nil {
			return nil, err
		}
		j := newJourney(&pin, tgt, clientsOf(pin.spec), closureSeconds*time.Second, nil)
		if err := j.run(); err != nil {
			return nil, fmt.Errorf("process-level %s: %w", name, err)
		}
		note(j)
		return j, nil
	}
	pr, err := process("serve_read")
	if err != nil {
		return err
	}
	pm, err := process("serve_mixed")
	if err != nil {
		return err
	}
	// What the socket, net/http and the second process add is what is left
	// of a process-level request once the handler's share is taken out:
	// read off the query path (socket.query_us), and independently off
	// serve_read's memory-only writes, which sit out no coalescing window
	// (socket.request_us). The closure ratios use the independent one.
	readP50 := summarise(pr.readNs).P50us
	out["socket.query_us"] = readP50 - out["server.query_handler_us"]
	out["socket.request_us"] = summarise(pr.writeNs).P50us - out["server.update_handler_us"]
	out["stack.read_closure_ratio"] = (out["socket.request_us"] + out["server.window_wait_us"] + out["server.query_self_us"] +
		out["shard.fanout_self_us"] + out["core.query_converged_us"]) / readP50
	// The WAL's share (write + fsync) is taken from the serving process's
	// own series: beside checkpoints and a reader an fsync costs more than
	// wal.append_us.always measures on an idle log.
	out["wal.append_us.mixed"] = pm.counters["wal.append_sum_s"] / math.Max(pm.counters["wal.appends"], 1) * 1e6
	out["stack.write_closure_ratio"] = (out["socket.request_us"] + out["server.insert_self_us"] + out["durable.self_us"] +
		out["wal.append_us.mixed"] + out["shard.insert_us"]) / summarise(pm.writeNs).P50us
	out["mixed.flushes"] = float64(int(pm.counters["durable.updates"]) / mixedFlushEvery)
	out["durable.checkpoints"] = pm.counters["durable.checkpoints"]
	out["failed_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.ServeFlags = nil // two servers ran; each probe states its own settings

	for _, m := range perLayer {
		v, ok := out[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("per-layer metric %s was not measured (%v)", m.Name, v)
		}
		res.PerLayer = append(res.PerLayer, reported{Name: m.Name, Unit: m.Unit, Value: v, Better: m.Better})
	}
	return nil
}
