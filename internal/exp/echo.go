package exp

import (
	"fmt"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// RunBootEchoWorkload boots a single Cache Kernel and runs a
// memory-based-messaging echo between two threads of one user space: a
// client writes a message page mapped with a signal record naming the
// server, the server echoes through a second page signalling the
// client, for a fixed number of round trips (paper §2.2). It reports
// the final virtual clock and scheduling step count; trace (optional)
// observes every coroutine dispatch. Together with the mixed workload
// in RunDeterminismWorkload it pins the boot path and the
// signal-delivery fast path under the determinism goldens. The machine
// has one MPM, so shards above one clamp to the serial engine; the
// parameter keeps the workload signature uniform across the goldens.
func RunBootEchoWorkload(trace func(name string, at uint64), shards int) (finalClock, steps uint64, err error) {
	return RunBootEchoWorkloadCut(trace, shards, 0, nil)
}

// RunBootEchoWorkloadCut is the cut form of the boot/echo workload: it
// pauses at virtual time cut for the pause hook before running to
// completion (cut 0 with a nil pause is the plain run).
func RunBootEchoWorkloadCut(trace func(name string, at uint64), shards int, cut uint64, pause func(m *hw.Machine)) (finalClock, steps uint64, err error) {
	cfg := hw.DefaultConfig()
	cfg.Shards = shards
	m := hw.NewMachine(cfg)
	m.SetTraceDispatch(trace)

	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		return 0, 0, err
	}
	attrs := ck.KernelAttrs{
		Name:      "echo",
		LockQuota: [4]int{4, 8, 16, 256},
	}
	var bodyErr error
	body := func(e *hw.Exec) { bodyErr = runBootEchoBody(k, e) }
	if _, err := k.Boot(attrs, 40, body); err != nil {
		return 0, 0, err
	}
	m.SetMaxSteps(50_000_000)
	if err := runCut(m, cut, pause); err != nil {
		return 0, 0, err
	}
	if bodyErr != nil {
		return 0, 0, bodyErr
	}
	return m.Now(), m.Steps(), nil
}

// Echo channel layout: each direction is one physical frame mapped
// twice in the user space — a read-only message mapping carrying the
// signal record that names the receiver, and a writable message alias
// the sender stores through.
const (
	echoRounds = 16

	echoRecvA = 0x5000_0000 // client -> server, signal record
	echoSendA = 0x5010_0000 // client -> server, writable alias
	echoRecvB = 0x5020_0000 // server -> client, signal record
	echoSendB = 0x5030_0000 // server -> client, writable alias

	echoPFNA = 700
	echoPFNB = 701
)

func runBootEchoBody(k *ck.Kernel, e *hw.Exec) error {
	sid, err := k.LoadSpace(e, false)
	if err != nil {
		return fmt.Errorf("echo: user space: %w", err)
	}

	// Server: echo every request through the reply page.
	serverDone := false
	server := k.MPM.NewExec("echo-server", func(se *hw.Exec) {
		for i := 0; i < echoRounds; i++ {
			v, err := k.WaitSignal(se)
			if err != nil {
				return
			}
			se.Instr(10)
			se.Store32(echoSendB, v+1)
			k.SignalReturn(se)
		}
		serverDone = true
	})
	stid, err := k.LoadThread(e, sid, ck.ThreadState{Priority: 35, Exec: server}, false)
	if err != nil {
		return fmt.Errorf("echo: server thread: %w", err)
	}

	// Client: wait for the go signal (sent after all mappings are
	// loaded), then ping and wait for each echo.
	clientDone := false
	client := k.MPM.NewExec("echo-client", func(ce *hw.Exec) {
		if _, err := k.WaitSignal(ce); err != nil {
			return
		}
		k.SignalReturn(ce)
		for i := 0; i < echoRounds; i++ {
			ce.Store32(echoSendA, uint32(i))
			if _, err := k.WaitSignal(ce); err != nil {
				return
			}
			ce.Instr(4)
			k.SignalReturn(ce)
		}
		clientDone = true
	})
	ctid, err := k.LoadThread(e, sid, ck.ThreadState{Priority: 30, Exec: client}, false)
	if err != nil {
		return fmt.Errorf("echo: client thread: %w", err)
	}

	maps := []ck.MappingSpec{
		{VA: echoRecvA, PFN: echoPFNA, Message: true, SignalThread: stid},
		{VA: echoSendA, PFN: echoPFNA, Writable: true, Message: true},
		{VA: echoRecvB, PFN: echoPFNB, Message: true, SignalThread: ctid},
		{VA: echoSendB, PFN: echoPFNB, Writable: true, Message: true},
	}
	for _, spec := range maps {
		if err := k.LoadMapping(e, sid, spec); err != nil {
			return fmt.Errorf("echo: mapping va %#x: %w", spec.VA, err)
		}
	}

	// Everything is wired: release the client.
	if err := k.PostSignal(e, ctid, 1); err != nil {
		return fmt.Errorf("echo: go signal: %w", err)
	}

	for i := 0; i < 4000 && !(serverDone && clientDone); i++ {
		e.Charge(2000)
	}
	if !serverDone || !clientDone {
		return fmt.Errorf("echo: incomplete: server=%v client=%v", serverDone, clientDone)
	}
	return nil
}
