// Command quasii-benchmark is the repository's benchmark: four workloads,
// ten gated end-to-end metrics, and a per-layer cost stack from the
// column store to the socket. See README.md in this directory.
//
//	quasii-benchmark [flags]                   run all four workloads, print and record every metric
//	quasii-benchmark -workload W [flags]       run one workload; the last line of stdout is the driver's JSON
//	quasii-benchmark stability -runs N [flags] run the whole set N times and report each metric's spread
//	quasii-benchmark compare A.json B.json     judge B against A, metric by metric, workload by workload
//
// Flags: -seed N, -seconds S (measured time per run), -trace 0|1 (1 = the
// traced twin and the per-layer probes instead of the end-to-end numbers),
// -scale full|smoke, -out DIR.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command line of one run.
type options struct {
	Workload string `json:"workload,omitempty"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Scale    string `json:"scale"`
	Out      string `json:"out"`
}

func parseFlags(name string, args []string, extra func(*flag.FlagSet)) (options, []string, error) {
	var o options
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&o.Workload, "workload", "", "run only this workload, in this process, and end stdout with the driver's JSON line")
	fs.Int64Var(&o.Seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&o.Seconds, "seconds", 12, "measured seconds per run, shared out over rounds and phases")
	fs.IntVar(&o.Trace, "trace", 0, "1 = run the traced twin and the per-layer probes and report the per-layer metrics")
	fs.StringVar(&o.Scale, "scale", "full", "full or smoke (tiny sizes, seconds of runtime, meaningless numbers)")
	fs.StringVar(&o.Out, "out", filepath.Join(".bench_build", "out"), "directory for results and trace files")
	if extra != nil {
		extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		return o, nil, err
	}
	if o.Scale != "full" && o.Scale != "smoke" {
		return o, nil, fmt.Errorf("unknown -scale %q (want full or smoke)", o.Scale)
	}
	if o.Trace != 0 && o.Trace != 1 {
		return o, nil, fmt.Errorf("-trace takes 0 or 1, not %d", o.Trace)
	}
	if o.Seconds < 1 {
		return o, nil, fmt.Errorf("-seconds must be at least 1")
	}
	return o, fs.Args(), nil
}

// hardLimit is the per-workload timeout: the driver allows 180 s per run, so
// a run that is not done well before that is reported as failed.
const hardLimit = 170 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "stability":
			return stabilityMain(args[1:])
		}
	}
	opts, rest, err := parseFlags("quasii-benchmark", args, nil)
	if err != nil {
		return 2
	}
	if len(rest) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", rest[0])
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if opts.Workload == "" {
		rs, err := runAll(root, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return reportAll(rs, opts)
	}
	return runOne(root, opts)
}

// repoRoot finds the module the benchmark measures: the working directory
// when started through run.sh, its parent under `go run .` in benchmark/.
func repoRoot() (string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{cwd, filepath.Dir(cwd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "quasii-serve", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root or from benchmark/: no cmd/quasii-serve near %s", cwd)
}

// runOne runs a single workload in this process and prints the driver's
// line. Exit status: 0 only when the workload ran and every answer checked.
func runOne(root string, opts options) int {
	spec, ok := findWorkload(opts.Workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", opts.Workload)
		return 2
	}
	defer house.guard(hardLimit, "workload "+spec.Name)()

	if err := os.MkdirAll(opts.Out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res, err := runWorkload(root, spec, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: workload %s FAILED: %v\n", spec.Name, err)
		return 1
	}
	if err := writeJSON(filepath.Join(opts.Out, resultFile(spec.Name, opts.Trace)), res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: recording the result:", err)
		return 1
	}
	res.print(os.Stdout)
	fmt.Println(res.driverLine())
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: workload %s FAILED: %d of %d operations failed; first: %s\n",
			spec.Name, res.Failed, res.Attempted, res.FirstError)
		return 1
	}
	return 0
}

func resultFile(workload string, trace int) string {
	if trace == 1 {
		return "layers-" + workload + ".json"
	}
	return "result-" + workload + ".json"
}

// environment is recorded with every result so two files can be compared
// knowingly.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Caveat     string `json:"caveat"`
}

const sandboxCaveat = "Measured in a small VM: reads hit the operating system's cache, and fsync costs what this VM's virtual disk charges, not what a device would. " +
	"Load generator and system share the same cores. Compare runs of one machine only."

func newEnvironment(root string) environment {
	return environment{
		Commit:     gitCommit(root),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Caveat:     sandboxCaveat,
	}
}
