package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// Example shows the engine's core pattern: schedule events, let resources
// serialize contenders, read the clock.
func Example() {
	eng := sim.NewEngine()
	bus := sim.NewResource(eng, "bus", 1)

	// Two transfers contend for one bus; a third job runs in parallel.
	bus.Use(100, func() { fmt.Println("transfer A done at", eng.Now()) })
	bus.Use(100, func() { fmt.Println("transfer B done at", eng.Now()) })
	eng.Schedule(50, func() { fmt.Println("independent event at", eng.Now()) })

	eng.Run()
	// Output:
	// independent event at 50ns
	// transfer A done at 100ns
	// transfer B done at 200ns
}

// ExampleResource_Use sequences a multi-phase NAND write: each phase
// holds its resource for a duration, and its completion callback issues
// the next phase.
func ExampleResource_Use() {
	eng := sim.NewEngine()
	bus := sim.NewResource(eng, "bus", 1)
	plane := sim.NewResource(eng, "plane", 1)
	bus.Use(10, func() { // transfer the page in
		plane.Use(300, func() { // program it
			fmt.Println("write complete at", eng.Now())
		})
	})
	eng.Run()
	// Output:
	// write complete at 310ns
}

// ExamplePreemptible shows program/erase suspend: a high-priority read
// preempts a long program, which resumes afterwards.
func ExamplePreemptible() {
	eng := sim.NewEngine()
	plane := sim.NewPreemptible(eng, "plane", 5)
	plane.Use(300, func() { fmt.Println("program done at", eng.Now()) })
	eng.Schedule(100, func() {
		plane.UsePriority(65, func() { fmt.Println("read done at", eng.Now()) })
	})
	eng.Run()
	// Output:
	// read done at 165ns
	// program done at 370ns
}
