package experiments

import (
	"fmt"

	"v10/internal/mathx"
	"v10/internal/models"
	"v10/internal/report"
)

// Calib is a reproduction-hygiene artifact (not a paper figure): for every
// model it puts the calibration targets — Table 1 operator lengths and the
// Fig. 4/5/7 utilizations — next to what the generated traces actually
// measure, so drift in the workload zoo is immediately visible.
func (c *Context) Calib() (*report.Table, error) {
	t := &report.Table{
		ID:    "calib",
		Title: "Workload-zoo calibration: paper targets vs generated traces",
		Note:  "targets from Table 1 and Figs. 4/5/7; measured at each model's reference batch",
		Header: []string{"model",
			"SA len tgt (µs)", "SA len meas", "VU len tgt (µs)", "VU len meas",
			"MXU tgt", "MXU meas", "VPU tgt", "VPU meas", "HBM tgt", "HBM meas"},
	}
	for _, spec := range models.Specs() {
		w := c.batchWorkload(spec.Abbrev, spec.RefBatch)
		var sa, vu, serial, bytes, saOcc, vuOcc float64
		var nSA, nVU int
		for _, st := range w.ProfileStats(c.ProfileRequests + 5) {
			sa += st.UsefulSACycles
			vu += st.UsefulVUCycles
			saOcc += float64(st.SACycles)
			vuOcc += float64(st.VUCycles)
			serial += float64(st.SerialCycles)
			bytes += st.HBMBytes
			nSA += st.NumSA
			nVU += st.NumVU
		}
		// A model whose trace has no ops of one kind (or no cycles at all)
		// must render as 0, not NaN — NaN cells break maxRelErr and every
		// downstream aggregate.
		measSALen := mathx.Ratio(saOcc, float64(nSA), 0) / 700
		measVULen := mathx.Ratio(vuOcc, float64(nVU), 0) / 700
		t.AddRow(spec.Name,
			report.FormatFloat(spec.MeanSAUS), report.FormatFloat(measSALen),
			report.FormatFloat(spec.MeanVUUS), report.FormatFloat(measVULen),
			report.Percent(spec.UtilSA), report.Percent(mathx.Ratio(sa, serial, 0)),
			report.Percent(spec.UtilVU), report.Percent(mathx.Ratio(vu, serial, 0)),
			report.Percent(spec.UtilHBM),
			report.Percent(mathx.Ratio(bytes, serial*c.Config.HBMBytesPerCycle(), 0)))
	}
	return t, nil
}

// maxRelErr returns the largest relative deviation between target/measured
// column pairs of a Calib table — used by tests to bound calibration drift.
func maxRelErr(t *report.Table) (float64, error) {
	var worst float64
	for _, row := range t.Rows {
		for col := 1; col+1 < len(row); col += 2 {
			tgt, err1 := parseNumeric(row[col])
			meas, err2 := parseNumeric(row[col+1])
			if err1 != nil || err2 != nil {
				return 0, fmt.Errorf("calib: bad cells %q %q", row[col], row[col+1])
			}
			if tgt == 0 {
				continue
			}
			rel := (meas - tgt) / tgt
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
		}
	}
	return worst, nil
}

func parseNumeric(s string) (float64, error) {
	var v float64
	if n, err := fmt.Sscanf(s, "%f", &v); n != 1 {
		return 0, err
	}
	return v, nil
}
