package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"
)

// Host-speed calibration. Shared VM hosts change the speed they give a
// guest by tens of percent over minutes: clock frequency, and the memory
// latency and bandwidth left over by neighbours. The benchmark times four
// fixed kernels next to every repetition, none of which runs simulator
// code, and divides the repetition's times by their combined slowdown
// against the reference host, so a run on a slower minute reads about the
// same. On the reference host, over 259 repetitions of open-armed-8a, this
// cut the spread of 11-repetition medians from 9–11% to 3%, where the
// clock-speed kernel alone left 5–6%.

// calibrationRef is each kernel's median time in seconds on the reference
// host of bench/README.md.
var calibrationRef = [4]float64{0.0227, 0.0433, 0.0243, 0.0137}

// calibrator holds a random single-cycle permutation over 64 MiB: larger
// than any last-level cache, so walking it measures memory latency and
// streaming it measures bandwidth.
type calibrator struct {
	ring []int32
	sink int
}

func newCalibrator() *calibrator {
	const n = 16 << 20
	ring := make([]int32, n)
	for i := range ring {
		ring[i] = int32(i)
	}
	// Sattolo's shuffle leaves one cycle through every slot.
	r := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return &calibrator{ring: ring}
}

// kernels are, in order: a dependent integer chain (clock speed), a walk
// of the ring (memory latency), two sequential passes over it (bandwidth),
// and building, walking and collecting a pointer graph (Go heap and GC).
func (c *calibrator) kernels() [4]func() {
	return [4]func(){
		func() {
			x := 1
			for i := 0; i < 10_000_000; i++ {
				x = x*1103515245 + 12345
				x ^= x >> 7
			}
			c.sink += x
		},
		func() {
			p := int32(0)
			for i := 0; i < 300_000; i++ {
				p = c.ring[p]
			}
			c.sink += int(p)
		},
		func() {
			var s int32
			for pass := 0; pass < 2; pass++ {
				for _, v := range c.ring {
					s += v
				}
			}
			c.sink += int(s)
		},
		func() {
			type obj struct {
				next *obj
				pad  [5]int
			}
			r := rand.New(rand.NewSource(2))
			objs := make([]*obj, 200_000)
			for i := range objs {
				objs[i] = &obj{}
			}
			for _, o := range objs {
				o.next = objs[r.Intn(len(objs))]
			}
			p := objs[0]
			for i := 0; i < 300_000; i++ {
				p = p.next
			}
			c.sink += p.pad[0]
			runtime.GC()
		},
	}
}

// times runs each kernel once and returns its duration in seconds.
func (c *calibrator) times() [4]float64 {
	var t [4]float64
	for i, k := range c.kernels() {
		start := time.Now()
		k()
		t[i] = time.Since(start).Seconds()
	}
	return t
}

// slowdown is the geometric mean of the kernels' times over their
// reference times: above 1, the host is running slower than the reference.
func slowdown(t [4]float64) float64 {
	var logSum float64
	for i, v := range t {
		logSum += math.Log(v / calibrationRef[i])
	}
	return math.Exp(logSum / float64(len(t)))
}
