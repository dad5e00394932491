package main

import (
	"fabp/internal/fpga"
	"fabp/internal/perf"
)

// yardstick sets each call kind's measured per-core throughput beside the
// paper's FPGA projection (Kintex-7, 12.8 GB/s) and GPU model for the
// same query and target lengths. These are report fields, not gated
// metrics: the models are projections, not measurements on this machine.
func yardstick(m *meter) map[string]any {
	out := map[string]any{}
	cores := float64(procs())
	lengths := map[string]int{}
	for _, c := range m.calls {
		lengths[c.kind] = c.target
	}
	for kind, k := range m.byKind() {
		lr := lengths[kind]
		sec := k.busy.Seconds()
		if lr == 0 || sec == 0 {
			continue
		}
		row := map[string]any{
			"query_residues":        geneResidues,
			"target_nt":             lr,
			"cells_per_s_per_core":  ratio(k.cells, sec) / cores,
			"nt_per_s_per_core":     ratio(k.nt, sec) / cores,
			"gpu_cells_per_s":       0.0,
			"fpga_cells_per_s":      0.0,
			"fpga_nt_per_s":         0.0,
			"fpga_per_core_speedup": 0.0,
		}
		cells := float64(geneNt) * float64(lr)
		if f, err := perf.FPGA(fpga.Kintex7(), geneResidues, lr); err == nil && f.Seconds > 0 {
			row["fpga_cells_per_s"] = cells / f.Seconds
			row["fpga_nt_per_s"] = float64(lr) / f.Seconds
			row["fpga_per_core_speedup"] = ratio(cells/f.Seconds, ratio(k.cells, sec)/cores)
		}
		if g := perf.DefaultGPU().Time(geneResidues, lr); g.Seconds > 0 {
			row["gpu_cells_per_s"] = cells / g.Seconds
		}
		out[kind] = row
	}
	return out
}
