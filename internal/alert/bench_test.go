package alert

import (
	"fmt"
	"testing"

	"github.com/fastvg/fastvg/internal/telemetry"
	"github.com/fastvg/fastvg/internal/tsdb"
)

// BenchmarkEval evaluates the default rule catalogue — what every fleet
// tick pays after its scrape — over a DB shaped like a wired daemon's:
// ~180 series, every ring full at the default 512 points.
func BenchmarkEval(b *testing.B) {
	reg := telemetry.NewRegistry()
	shed := reg.Counter("vgx_service_shed_total", "shed")
	persist := reg.Counter("vgx_service_persist_errors_total", "persist errors")
	esc := reg.Counter("vgx_surrogate_escalations_total", "escalations")
	hits := reg.Counter("vgx_surrogate_hits_total", "hits")
	worst := reg.Gauge("vgx_fleet_staleness_worst", "worst staleness")
	sat := reg.Gauge("vgx_sched_saturation", "saturation")
	for i := 0; i < 60; i++ {
		reg.Counter(fmt.Sprintf("vgx_bench_c%02d_total", i), "c").Add(int64(i))
	}
	for i := 0; i < 40; i++ {
		reg.Gauge(fmt.Sprintf("vgx_bench_g%02d", i), "g").Set(float64(i))
	}
	for _, kind := range []string{"fast", "baseline", "chain", "verify"} {
		h := reg.Histogram("vgx_bench_job_seconds", "h", telemetry.SecondsBuckets, telemetry.L("kind", kind))
		h.Observe(0.01)
	}
	db := tsdb.New(reg, tsdb.Options{Capacity: 512})
	for i := 0; i < 512; i++ {
		shed.Add(int64(i % 2))
		persist.Add(int64(i % 3 / 2))
		esc.Add(1)
		hits.Add(2)
		worst.Set(float64(i%5) * 0.5)
		sat.Set(float64(i%4) * 0.5)
		db.Scrape(float64(i) * 10)
	}
	if st := db.Stats(); st.Series < 170 || st.Points != st.Series*512 {
		b.Fatalf("DB = %+v, want ~180 full rings", st)
	}
	eng, err := New(db, DefaultRules(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Eval(5120 + float64(i))
	}
}
