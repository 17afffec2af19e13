// Command datagen generates the synthetic Beijing-style multi-site
// air-quality corpus as one CSV file per edge node, for use with the
// qensd daemon and external tooling.
//
// Usage:
//
//	datagen -out data/ -nodes 10 -samples 2000 -seed 1 -heterogeneity 0.6 -flip 0.2
//	datagen -out data/ -paper        # reduced 2-column (TEMP, PM2.5) node files
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"qens/internal/dataset"
)

func main() {
	var (
		out           = flag.String("out", "data", "output directory for node CSV files")
		nodes         = flag.Int("nodes", 10, "number of edge nodes (paper: 10)")
		samples       = flag.Int("samples", 2000, "samples per node")
		seed          = flag.Uint64("seed", 1, "corpus seed")
		heterogeneity = flag.Float64("heterogeneity", 0.6, "site distribution shift in [0,1]")
		flip          = flag.Float64("flip", 0.2, "fraction of sites with sign-flipped regression")
		paper         = flag.Bool("paper", false, "emit the paper's reduced 2-column (TEMP, PM2.5) node datasets")
	)
	flag.Parse()

	cfg := dataset.Config{
		Nodes:          *nodes,
		SamplesPerNode: *samples,
		Seed:           *seed,
		Heterogeneity:  *heterogeneity,
		FlipFraction:   *flip,
	}
	var (
		sets []*dataset.Dataset
		err  error
	)
	if *paper {
		sets, err = dataset.PaperNodeDatasets(cfg)
	} else {
		sets, err = dataset.SyntheticAirQuality(cfg)
	}
	if err != nil {
		fatal("generate corpus: %v", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal("create output dir: %v", err)
	}
	for i, d := range sets {
		name := fmt.Sprintf("node-%02d.csv", i)
		if i < len(dataset.SiteNames) {
			name = fmt.Sprintf("node-%02d-%s.csv", i, dataset.SiteNames[i])
		}
		path := filepath.Join(*out, name)
		if err := d.SaveFile(path); err != nil {
			fatal("write %s: %v", path, err)
		}
		fmt.Printf("wrote %s (%d samples, %d columns)\n", path, d.Len(), d.Dims())
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "datagen: "+format+"\n", args...)
	os.Exit(1)
}
