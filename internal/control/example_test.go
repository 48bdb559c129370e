package control_test

import (
	"fmt"

	"sprintcon/internal/control"
)

// Close the loop on the linear design model: the MPC tracks a batch power
// budget by moving core frequencies.
func ExampleMPC_Step() {
	const n = 8
	m, err := control.NewMPC(control.DefaultMPCConfig(n, 9.6)) // 9.6 W per GHz per core
	if err != nil {
		panic(err)
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}

	freqs := make([]float64, n)
	for i := range freqs {
		freqs[i] = 0.4
	}
	const c = 150.0
	target := c + 9.6*n*1.5 // reachable at mean 1.5 GHz
	plant := func() float64 {
		p := c
		for _, f := range freqs {
			p += 9.6 * f
		}
		return p
	}
	for s := 0; s < 10; s++ {
		next, err := m.Step(plant(), target, freqs, weights)
		if err != nil {
			panic(err)
		}
		freqs = next
	}
	fmt.Printf("power within 1%%: %v\n", plant() > 0.99*target && plant() < 1.01*target)
	// Output:
	// power within 1%: true
}

// The UPS power controller covers exactly the load above the breaker
// budget.
func ExampleUPSController_Step() {
	cfg := control.DefaultUPSControllerConfig()
	cfg.TargetMarginW = 0
	c, err := control.NewUPSController(cfg)
	if err != nil {
		panic(err)
	}
	req := c.Step(4000, 3200, 3200) // 4 kW rack, 3.2 kW CB budget
	fmt.Printf("discharge request: %.0f W\n", req)
	// Output:
	// discharge request: 800 W
}
