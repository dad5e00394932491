// Command fabp-db manages packed FabP reference databases: build one from
// FASTA (v2 format: payload + bit-planes + checksums), verify or inspect
// it, or search it with a protein query.
//
// Usage:
//
//	fabp-db build -in db.fasta -out db.fabp [-v1]
//	fabp-db verify -db db.fabp              # checksums + digest; exit 1 on damage
//	fabp-db inspect -db db.fabp [-json]     # file format, sections, digest
//	fabp-db info -db db.fabp
//	fabp-db search -db db.fabp -query MKWVTF... [-threshold-frac 0.85]
//	fabp-db demo -out demo.fabp     # write a synthetic demo database
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"fabp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fabp-db: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		cmdBuild(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "search":
		cmdSearch(os.Args[2:])
	case "demo":
		cmdDemo(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fabp-db {build|verify|inspect|info|search|demo} [flags]")
	os.Exit(2)
}

func cmdBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "", "input nucleotide FASTA")
	out := fs.String("out", "", "output database file")
	legacy := fs.Bool("v1", false, "write the legacy v1 format (no checksums, no planes)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		fs.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	d, err := fabp.BuildDatabase(f)
	if err != nil {
		log.Fatal(err)
	}
	writeDB(d, *out, *legacy)
	format := "v2"
	if *legacy {
		format = "v1"
	}
	fmt.Printf("built %s (%s): %d records, %d nt\n", *out, format, d.NumRecords(), d.Len())
}

// cmdVerify runs the full structural validation — magic, section
// checksums, content digest, plane section — and exits non-zero on any
// damage. A rejected plane section is reported but is not a failure (the
// file still loads, scans fall back to packing).
func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	fs.Parse(args)
	info := inspectFile(fs, *path)
	if info.PlaneError != "" {
		fmt.Printf("%s: OK (degraded) — v%d, %d records, %d nt, digest %s\n",
			*path, info.Version, info.Records, info.TotalNt, info.Digest)
		fmt.Printf("  plane section rejected (loads will re-pack): %s\n", info.PlaneError)
		return
	}
	fmt.Printf("%s: OK — v%d, %d records, %d nt, digest %s\n",
		*path, info.Version, info.Records, info.TotalNt, info.Digest)
}

// cmdInspect prints the file's on-disk shape, optionally as JSON.
func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	asJSON := fs.Bool("json", false, "emit JSON")
	fs.Parse(args)
	info := inspectFile(fs, *path)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(info); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("format:   v%d\n", info.Version)
	fmt.Printf("records:  %d\n", info.Records)
	fmt.Printf("total:    %d nt\n", info.TotalNt)
	fmt.Printf("digest:   %s\n", info.Digest)
	fmt.Printf("sections: index %d B, payload %d B, planes %d B\n",
		info.IndexBytes, info.PayloadBytes, info.PlaneBytes)
	switch {
	case info.HasPlanes:
		fmt.Println("planes:   present (warm start: loads skip packing)")
	case info.PlaneError != "":
		fmt.Printf("planes:   REJECTED — %s\n", info.PlaneError)
	default:
		fmt.Println("planes:   absent (loads pack in-process)")
	}
}

func inspectFile(fs *flag.FlagSet, path string) fabp.DatabaseFileInfo {
	if path == "" {
		fs.Usage()
		os.Exit(2)
	}
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	info, err := fabp.InspectDatabase(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return info
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	fs.Parse(args)
	d := openDB(*path)
	fmt.Printf("database: %d records, %d nt total (%.1f MB packed)\n",
		d.NumRecords(), d.Len(), float64(d.Len())/4/1e6)
	for i := 0; i < d.NumRecords(); i++ {
		r := d.Record(i)
		desc := r.Description
		if desc != "" {
			desc = " — " + desc
		}
		fmt.Printf("  %-20s %10d nt%s\n", r.ID, r.Length, desc)
	}
}

func cmdSearch(args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	protein := fs.String("query", "", "protein query (one-letter codes)")
	frac := fs.Float64("threshold-frac", 0.85, "hit threshold fraction")
	top := fs.Int("top", 10, "hits to print")
	fs.Parse(args)
	d := openDB(*path)
	if *protein == "" {
		fs.Usage()
		os.Exit(2)
	}
	q, err := fabp.NewQuery(*protein)
	if err != nil {
		log.Fatal(err)
	}
	a, err := fabp.NewAligner(q, fabp.WithThresholdFraction(*frac))
	if err != nil {
		log.Fatal(err)
	}
	hits, err := a.AlignDatabaseContext(context.Background(), d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %d aa, threshold %d/%d: %d hits\n",
		q.Residues(), a.Threshold(), q.MaxScore(), len(hits))
	for i, h := range hits {
		if i >= *top {
			fmt.Printf("... %d more\n", len(hits)-i)
			break
		}
		fmt.Printf("  %-20s offset %-10d score %d/%d\n", h.RecordID, h.Offset, h.Score, q.MaxScore())
	}
}

func cmdDemo(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	out := fs.String("out", "demo.fabp", "output database file")
	fs.Parse(args)
	ref, genes := fabp.SyntheticReference(2021, 100_000, 5, 60)
	d, err := fabp.DatabaseFromReference("synthetic", ref)
	if err != nil {
		log.Fatal(err)
	}
	writeDB(d, *out, false)
	fmt.Printf("wrote %s (%d nt); try searching for a planted gene:\n", *out, d.Len())
	fmt.Printf("  fabp-db search -db %s -query %s\n", *out, genes[0].Protein)
}

func openDB(path string) *fabp.Database {
	if path == "" {
		usage()
	}
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	d, err := fabp.LoadDatabase(f)
	if err != nil {
		log.Fatal(err)
	}
	return d
}

func writeDB(d *fabp.Database, path string, legacy bool) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if legacy {
		err = d.SaveDatabaseLegacy(f)
	} else {
		err = d.SaveDatabase(f)
	}
	if err != nil {
		log.Fatal(err)
	}
}
