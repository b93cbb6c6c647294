package main

import "time"

// The machine the benchmark was sized on, a two-vCPU Xeon VM, shares its
// CPUs with other tenants, whose load swings its speed by up to 2x over
// seconds to minutes; raw host times of two runs a few minutes apart differ
// by 20-30% with no code change. So the harness times a fixed reference
// loop before every set-up and every round, and divides compute-bound host
// times (and multiplies rates) by the slowdown — the median reference time
// over refNominal. The loop runs no code of the packages under test, so a
// change to them moves the calibrated numbers exactly as it moves the raw
// ones; only the machine's speed is divided out.

// refNominal is the reference loop's median duration on the sizing machine
// (a two-vCPU Xeon VM) when quiet. Calibrated times read as if measured
// on a machine that runs the loop in refNominal.
const refNominal = 3800 * time.Microsecond

// refPerRound is the number of reference loops timed before each round, so
// even a window of few long rounds has a dozen reference samples.
const refPerRound = 3

// refBufLen is the reference loop's working set: 256 KiB of float64s,
// cache-resident like the cost model's compiled plans.
const refBufLen = 1 << 15

// referenceLoop times a fixed mix of dependent float arithmetic and
// scattered loads and stores over buf (length refBufLen).
func referenceLoop(buf []float64) time.Duration {
	start := time.Now()
	h := uint64(1469598103934665603)
	acc := 0.0
	for i := 0; i < 1_500_000; i++ {
		j := int(h>>33) & (refBufLen - 1)
		buf[j] = buf[j]*0.5 + float64(i&255)
		acc += buf[j] / (1 + float64(j))
		h = (h ^ uint64(j)) * 1099511628211
	}
	buf[0] = acc
	return time.Since(start)
}

// slowdown is the median of reference-loop times over refNominal: 1 on a
// quiet sizing machine, above 1 when other tenants slow it down.
func slowdown(refs []time.Duration) float64 {
	xs := make([]float64, len(refs))
	for i, d := range refs {
		xs[i] = float64(d)
	}
	return median(xs) / float64(refNominal)
}
