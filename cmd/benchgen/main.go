// Command benchgen generates ConvMeter benchmark datasets (the paper's
// measurement campaigns) to CSV using the built-in simulators.
//
// Usage:
//
//	benchgen -scenario inference-gpu -out gpu.csv
//	benchgen -scenario inference-cpu -seed 7 -out cpu.csv
//	benchgen -scenario train-single  -out train1.csv
//	benchgen -scenario train-multi   -out trainN.csv
//	benchgen -scenario blocks        -out blocks.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"convmeter"
	"convmeter/internal/obs"
)

func main() {
	scenario := flag.String("scenario", "inference-gpu",
		"one of: inference-gpu, inference-cpu, train-single, train-multi, blocks")
	seed := flag.Int64("seed", 1, "simulator seed")
	out := flag.String("out", "", "output CSV path (default stdout)")
	flag.Parse()

	samples, err := convmeter.CollectNamed(*scenario, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
	write := func(w io.Writer) error { return convmeter.WriteCSV(w, samples) }
	if *out == "" {
		err = write(os.Stdout)
	} else {
		err = obs.Export(*out, write)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchgen: wrote %d samples (%s)\n", len(samples), *scenario)
}
