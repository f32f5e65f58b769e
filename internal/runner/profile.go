package runner

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins the host profiles a CLI was asked for: a CPU
// profile written to cpuPath and, when the returned stop runs, a heap
// profile written to memPath. An empty path skips that profile. stop
// must be called once, when the work to be profiled is done; it reports
// the first error from finishing either file.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeapProfile(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeapProfile writes the allocation profile (in-use and cumulative
// allocated samples) to path, after a collection so in-use figures are
// current.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
