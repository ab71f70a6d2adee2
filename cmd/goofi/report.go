// goofi report: cross-campaign comparison. Joins each campaign's analysis
// results (run `goofi analyze` first), logged experiments and persisted run
// metrics into one side-by-side report — per-EDM coverage with Wilson
// intervals, location breakdowns, engine and phase-duration tables — as
// text, CSV or a self-contained HTML page.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"goofi/internal/analysis"
	"goofi/internal/target"
)

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	dbPath := fs.String("db", "", "campaign database file")
	campaigns := fs.String("campaigns", "", "comma-separated campaigns to compare")
	format := fs.String("format", "text", "output format: text, csv or html")
	outPath := fs.String("o", "", "write the report to this file instead of stdout")
	locations := fs.Bool("locations", true, "include the per-location breakdown")
	addr := fs.String("addr", "", "fetch the report from a goofi serve daemon instead of a database file")
	campaign := fs.String("campaign", "", "TENANT/NAME of the service campaign to report on (with -addr)")
	jsonOut := fs.Bool("json", false, "with -addr: print the raw JSON report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr != "" {
		return serviceReport(*addr, *campaign, *jsonOut, os.Stdout)
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	names := splitList(*campaigns)
	// Bare `goofi report -db FILE` compares everything in the database.
	if len(names) == 0 {
		if names, err = db.Campaigns(); err != nil {
			return err
		}
		if len(names) == 0 {
			return fmt.Errorf("report: database has no campaigns")
		}
	}
	var ops target.Operations
	if *locations {
		ops = target.NewDefaultThorTarget()
	}
	rep, err := analysis.Cross(db, names, ops)
	if err != nil {
		return err
	}

	if *outPath == "" {
		return renderReport(rep, *format, os.Stdout)
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	if err := renderReport(rep, *format, f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logger.Info("report written", "path", *outPath, "format", *format, "campaigns", len(names))
	return nil
}

// serviceReport fetches one campaign's analysis report from a goofi serve
// daemon and renders it like goofi analyze does locally.
func serviceReport(addr, campaign string, jsonOut bool, w io.Writer) error {
	if campaign == "" {
		return fmt.Errorf("report: -addr needs -campaign TENANT/NAME")
	}
	resp, err := http.Get(serviceURL(addr) + "/campaigns/" + campaign + "/report")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("report: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if jsonOut {
		_, err := io.Copy(w, resp.Body)
		return err
	}
	var rep analysis.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("report: decode: %w", err)
	}
	fmt.Fprint(w, rep)
	return nil
}

// renderReport writes the report in the requested format.
func renderReport(rep analysis.CrossReport, format string, w io.Writer) error {
	switch format {
	case "text":
		rep.Format(w)
		return nil
	case "csv":
		return rep.WriteCSV(w)
	case "html":
		return rep.WriteHTML(w)
	default:
		return fmt.Errorf("report: unknown -format %q (want text, csv or html)", format)
	}
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
