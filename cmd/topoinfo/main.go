// Command topoinfo inspects a simulated Aries Dragonfly topology: sizes, link
// counts per tier, the hop-count histogram of minimal paths and the
// allocation-class of sample node pairs. It is useful to sanity check a
// geometry before running experiments on it.
//
// Usage:
//
//	topoinfo -geometry aries:6
//	topoinfo -geometry small:3 -samples 5000
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"dragonfly"
	"dragonfly/internal/topo"
	"dragonfly/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "topoinfo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("topoinfo", flag.ContinueOnError)
	var (
		geometryName = fs.String("geometry", "aries:6", "machine: a geometry ladder rung or preset (small, medium, large, daint, small:N, medium:N, aries:N)")
		ladder       = fs.Bool("ladder", false, "print the geometry ladder (sizes and adjacency memory per rung) and exit")
		samples      = fs.Int("samples", 2000, "random router pairs sampled for the hop histogram")
		seed         = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ladder {
		return printLadder()
	}

	cfg, err := dragonfly.ParseGeometry(*geometryName)
	if err != nil {
		return err
	}
	t, err := topo.New(cfg)
	if err != nil {
		return err
	}

	overview := trace.NewTable("Topology overview", "property", "value")
	overview.AddRow("groups", cfg.Groups)
	overview.AddRow("chassis per group", cfg.ChassisPerGroup)
	overview.AddRow("blades per chassis", cfg.BladesPerChassis)
	overview.AddRow("nodes per blade", cfg.NodesPerBlade)
	overview.AddRow("routers", t.NumRouters())
	overview.AddRow("nodes", t.NumNodes())
	overview.AddRow("directed links", t.NumLinks())
	overview.AddRow("adjacency (CSR) KiB", fmt.Sprintf("%.1f", float64(t.AdjacencyBytes())/1024))
	if err := overview.Render(os.Stdout); err != nil {
		return err
	}

	byType := map[topo.LinkType]int{}
	for _, l := range t.Links() {
		byType[l.Type]++
	}
	links := trace.NewTable("Links per tier", "tier", "directed links")
	for _, lt := range []topo.LinkType{topo.LinkIntraChassis, topo.LinkIntraGroup, topo.LinkGlobal} {
		links.AddRow(lt.String(), byType[lt])
	}
	if err := links.Render(os.Stdout); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	hist := make(map[int]int)
	for i := 0; i < *samples; i++ {
		a := topo.RouterID(rng.Intn(t.NumRouters()))
		b := topo.RouterID(rng.Intn(t.NumRouters()))
		hist[t.MinimalHops(a, b)]++
	}
	hops := trace.NewTable(fmt.Sprintf("Minimal path hop histogram (%d random router pairs)", *samples),
		"hops", "pairs", "fraction")
	for h := 0; h <= topo.MaxMinimalHops; h++ {
		if hist[h] == 0 {
			continue
		}
		hops.AddRow(h, hist[h], float64(hist[h])/float64(*samples))
	}
	if err := hops.Render(os.Stdout); err != nil {
		return err
	}

	classes := trace.NewTable("Sample node pair classification", "node a", "node b", "class")
	for i := 0; i < 5; i++ {
		a := topo.NodeID(rng.Intn(t.NumNodes()))
		b := topo.NodeID(rng.Intn(t.NumNodes()))
		classes.AddRow(int(a), int(b), t.Classify(a, b).String())
	}
	return classes.Render(os.Stdout)
}

// printLadder builds every rung of the geometry ladder and tabulates its
// size and adjacency memory — the quick answer to "what does each rung cost
// before I run on it".
func printLadder() error {
	table := trace.NewTable("Geometry ladder",
		"rung", "groups", "routers", "nodes", "directed links", "adjacency (CSR) KiB")
	for _, rung := range dragonfly.GeometryLadder() {
		t, err := topo.New(rung.Geometry)
		if err != nil {
			return err
		}
		table.AddRow(rung.Name, rung.Geometry.Groups, t.NumRouters(), t.NumNodes(),
			t.NumLinks(), fmt.Sprintf("%.1f", float64(t.AdjacencyBytes())/1024))
	}
	return table.Render(os.Stdout)
}
