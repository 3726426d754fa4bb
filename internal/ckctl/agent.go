package ckctl

import (
	"fmt"
	"slices"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/sim"
	"vpp/internal/srm"
)

// The per-MPM agent: an SRM-space worker thread (installed through the
// SRM service registry, so it is replayed across crash recoveries) that
// polls on a self-alarm, executes controller commands against its local
// SRM, and reports its module's state back. Agents hold the kernel-call
// authority the plane needs — launch, swap, unswap, expel and adopt are
// Cache Kernel calls only a thread of the first kernel may make.

// cmdKind is a controller→agent command type.
type cmdKind int

const (
	// cmdEnsure converges one instance toward running on this module:
	// launch if absent, unswap if swapped, revive if its context died.
	// Idempotent, so the controller can reissue it on any timeout.
	cmdEnsure cmdKind = iota
	// cmdMigrateOut expels the named instance and hands its records to
	// the destination module's agent.
	cmdMigrateOut
	// cmdAdopt (agent→agent) carries an expelled instance's records.
	cmdAdopt
)

// command is one inbox entry.
type command struct {
	kind cmdKind
	name string
	spec KernelSpec
	// fresh resets the pod's beat count (restart-after-completion).
	fresh bool
	// dst is the migration target module.
	dst int
	// mig carries the records for cmdAdopt.
	mig *migMsg
}

// migMsg is the migration handoff: the expelled kernel's backing
// records plus the blackout bookkeeping. Ownership of rec and pr moves
// to the destination shard with the message (the epoch barrier is the
// synchronization point).
type migMsg struct {
	name     string
	rec      *srm.Launched
	pr       *podRec
	from, to int
	// execName is the main thread's execution-context name, the key the
	// destination's dispatch hook watches for first resume.
	execName string
	// srcLast is the last source-side dispatch of the pod's main;
	// expelAt/adoptAt/firstAt complete the protocol timeline.
	srcLast uint64
	expelAt uint64
	adoptAt uint64
	firstAt uint64
}

// podState is an agent's classification of one hosted instance.
type podState int

const (
	psRunning podState = iota
	psSwapped
	psCompleted
	psFailed
	psGone
)

func (s podState) String() string {
	switch s {
	case psRunning:
		return "running"
	case psSwapped:
		return "swapped"
	case psCompleted:
		return "completed"
	case psFailed:
		return "failed"
	case psGone:
		return "gone"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// kernelReport is one instance's line in a node report.
type kernelReport struct {
	Name  string
	State podState
	Beats uint64
	Gen   int
}

// nodeReport is an agent's periodic status message to the controller.
type nodeReport struct {
	Node       int
	At         uint64
	Load       uint64 // ck.CacheCounters().LoadScore()
	FreeGroups int
	Recoveries int
	Kernels    []kernelReport
}

// opFail tells the controller an ensure could not complete.
type opFail struct {
	name string
	node int
	err  string
}

// migFail tells the controller a migration leg failed.
type migFail struct {
	name     string
	from, to int
	stage    string // "expel" or "adopt"
	err      string
}

// event is one controller-inbox entry.
type event struct {
	report  *nodeReport
	migDone *migMsg
	migFail *migFail
	opFail  *opFail
}

// sendCmd delivers a command to a node's agent after the control
// latency; src is the sending shard's engine.
func (c *Cluster) sendCmd(src *sim.Engine, now uint64, n *Node, cmd command) {
	src.ScheduleCrossAt(n.MPM.Shard, now+c.Cfg.CtlLatency, func() {
		n.inbox = append(n.inbox, cmd)
	})
}

// sendEvent delivers an event to the controller after the control
// latency.
func (c *Cluster) sendEvent(src *sim.Engine, now uint64, ev event) {
	ctl := c.ctl
	src.ScheduleCrossAt(c.Nodes[0].MPM.Shard, now+c.Cfg.CtlLatency, func() {
		ctl.inbox = append(ctl.inbox, ev)
	})
}

// agentBody is the agent service loop (restarted from the top by the
// SRM's service replay after a crash, so everything it sets up is
// re-established here).
func (n *Node) agentBody(se *hw.Exec) {
	n.installDispatchHook()
	n.agentUp = true
	n.retired["agent"] = false
	for se.Now() < n.cl.Cfg.Horizon {
		tid := n.CK.CurrentThread(se)
		if err := n.CK.SetAlarm(se, tid, se.Now()+n.cl.Cfg.AgentTick, sigTick); err != nil {
			break
		}
		if _, err := n.CK.WaitSignal(se); err != nil {
			break
		}
		n.CK.SignalReturn(se)
		n.drain(se)
		n.report(se)
		n.reviveDead(se, "medic")
	}
	n.retired["agent"] = true
}

// medicBody is the plane's service watchdog. A kill fault can land on
// the agent or controller thread itself, and nothing else would notice
// — the SRM guardian only watches whole-kernel crashes, and a dead
// agent sends no reports to miss. The medic revives dead sibling
// services from their bodies each tick; the agent reciprocally watches
// the medic, so no single kill decapitates the plane.
func (n *Node) medicBody(se *hw.Exec) {
	n.retired["medic"] = false
	for se.Now() < n.cl.Cfg.Horizon {
		tid := n.CK.CurrentThread(se)
		if err := n.CK.SetAlarm(se, tid, se.Now()+n.cl.Cfg.AgentTick, sigTick); err != nil {
			break
		}
		if _, err := n.CK.WaitSignal(se); err != nil {
			break
		}
		n.CK.SignalReturn(se)
		n.reviveDead(se, "agent")
		if n.Idx == 0 {
			n.reviveDead(se, "ctl")
		}
	}
	n.retired["medic"] = true
}

// reviveDead regenerates a named sibling service if its execution
// context died (the body reruns from the top — services are written
// for that, like crash replay). A retired service — one whose body
// returned on its own, at the horizon or on a call error — is finished
// too, but deliberately so; only a kill fault leaves the context dead
// without the retired mark.
func (n *Node) reviveDead(se *hw.Exec, name string) {
	if n.retired[name] || !n.SRM.ServiceDead(name) {
		return
	}
	if err := n.SRM.ReviveService(se, name); err == nil {
		n.revived++
	}
}

// installDispatchHook owns the Cache Kernel's dispatch hook: it tracks
// every context's last dispatch (the migration blackout's source
// timestamp) and completes adoptions on the first dispatch of a
// migrated-in main. srm.Recover clobbers the hook during crash
// recovery; the guardian's OnRecovered callback and the replayed agent
// body both reinstall it.
func (n *Node) installDispatchHook() {
	eng := n.MPM.Shard
	n.CK.OnDispatch = func(_ ck.ObjID, name string, now uint64) {
		n.lastDispatch[name] = now
		if len(n.awaitFirst) == 0 {
			return
		}
		m, ok := n.awaitFirst[name]
		if !ok {
			return
		}
		delete(n.awaitFirst, name)
		m.firstAt = now
		// Engine context: the migrated main just resumed on a CPU of this
		// module. Close the measurement and tell the controller.
		n.cl.sendEvent(eng, eng.Now(), event{migDone: m})
	}
}

// drain executes queued controller commands.
func (n *Node) drain(se *hw.Exec) {
	for len(n.inbox) > 0 {
		cmds := n.inbox
		n.inbox = nil
		for i := range cmds {
			n.exec1(se, &cmds[i])
		}
	}
}

// exec1 runs one command.
func (n *Node) exec1(se *hw.Exec, c *command) {
	eng := n.MPM.Shard
	switch c.kind {
	case cmdEnsure:
		if err := n.ensure(se, c); err != nil {
			n.cl.sendEvent(eng, se.Now(), event{opFail: &opFail{
				name: c.name, node: n.Idx, err: err.Error(),
			}})
		}
	case cmdMigrateOut:
		n.migrateOut(se, c)
	case cmdAdopt:
		n.adopt(se, c.mig)
	}
}

// ensure converges one instance toward running on this module.
func (n *Node) ensure(se *hw.Exec, c *command) error {
	pr := n.hosted[c.name]
	l := n.SRM.Kernel(c.name)
	if l == nil {
		// Absent: full launch.
		if pr == nil {
			pr = &podRec{spec: c.spec, pod: &Pod{Name: c.name}}
		}
		if c.fresh {
			pr.pod.Beats, pr.pod.Done, pr.pod.AtHorizon = 0, false, false
		}
		_, err := n.SRM.Launch(se, c.name, srm.LaunchOpts{
			Groups: pr.spec.Groups, MainPrio: pr.spec.MainPrio,
		}, n.beatBody(pr))
		if err != nil {
			return err
		}
		pr.gen++
		n.host(c.name, pr)
		return nil
	}
	if pr == nil {
		// Launched but unknown to the agent (lost host state would be a
		// bug; the record is the ground truth, so re-adopt it).
		pr = &podRec{spec: c.spec, pod: &Pod{Name: c.name}}
		n.host(c.name, pr)
	}
	if c.fresh {
		pr.pod.Beats, pr.pod.Done, pr.pod.AtHorizon = 0, false, false
	}
	if l.KID == 0 {
		// Swapped out by cache pressure: revive a dead context first so
		// Unswap's thread load lands on a runnable one, then reload.
		if l.Main != nil && l.Main.Exec.Finished() {
			pr.pod.Done, pr.pod.AtHorizon = false, false
			l.Main.Revive()
			pr.gen++
		}
		return n.SRM.Unswap(se, c.name)
	}
	if l.Main != nil && l.Main.Exec.Finished() {
		// Loaded kernel, dead main (a kill fault, or a completed pod
		// being restarted): regenerate the context from the body and
		// reload just the thread.
		pr.pod.Done, pr.pod.AtHorizon = false, false
		if !l.Main.Revive() {
			return fmt.Errorf("ckctl: %q main not revivable", c.name)
		}
		if err := l.Main.Load(se, false); err != nil {
			return err
		}
		n.SRM.TrackThread(l.Main)
		pr.gen++
	}
	return nil
}

// migrateOut expels the instance and hands its records to the
// destination agent.
func (n *Node) migrateOut(se *hw.Exec, c *command) {
	eng := n.MPM.Shard
	fail := func(err error) {
		n.cl.sendEvent(eng, se.Now(), event{migFail: &migFail{
			name: c.name, from: n.Idx, to: c.dst, stage: "expel", err: err.Error(),
		}})
	}
	pr := n.hosted[c.name]
	l := n.SRM.Kernel(c.name)
	if pr == nil || l == nil {
		fail(fmt.Errorf("%w: %q", srm.ErrUnknownKernel, c.name))
		return
	}
	execName := l.AK.Name + "/main"
	srcLast := n.lastDispatch[execName]
	rec, err := n.SRM.Expel(se, c.name)
	if err != nil {
		fail(err)
		return
	}
	n.unhost(c.name)
	m := &migMsg{
		name: c.name, rec: rec, pr: pr,
		from: n.Idx, to: c.dst, execName: execName,
		srcLast: srcLast, expelAt: se.Now(),
	}
	dst := n.cl.Nodes[c.dst]
	n.cl.sendCmd(eng, se.Now(), dst, command{kind: cmdAdopt, name: c.name, mig: m})
}

// adopt installs migrated-in records and arms the first-dispatch watch
// that closes the blackout measurement.
func (n *Node) adopt(se *hw.Exec, m *migMsg) {
	eng := n.MPM.Shard
	// Host-side state first: if a crash lands mid-Adopt, the replayed
	// agent still knows about the pod it was taking in (Adopt itself
	// registers the records before reloading, for the same reason).
	n.host(m.name, m.pr)
	n.awaitFirst[m.execName] = m
	if err := n.SRM.Adopt(se, m.rec); err != nil {
		n.unhost(m.name)
		delete(n.awaitFirst, m.execName)
		n.cl.sendEvent(eng, se.Now(), event{migFail: &migFail{
			name: m.name, from: m.from, to: m.to, stage: "adopt", err: err.Error(),
		}})
		return
	}
	m.adoptAt = se.Now()
	m.pr.gen++
}

// report sends the module's status to the controller.
func (n *Node) report(se *hw.Exec) {
	rep := &nodeReport{
		Node:       n.Idx,
		At:         se.Now(),
		Load:       n.CK.CacheCounters().LoadScore(),
		FreeGroups: n.SRM.FreeGroups(),
		Recoveries: n.recoveries,
		Kernels:    make([]kernelReport, 0, len(n.hostedOrder)),
	}
	for _, name := range n.hostedOrder {
		pr := n.hosted[name]
		rep.Kernels = append(rep.Kernels, kernelReport{
			Name: name, State: n.podState(name, pr), Beats: pr.pod.Beats, Gen: pr.gen,
		})
	}
	n.cl.sendEvent(n.MPM.Shard, se.Now(), event{report: rep})
}

// podState classifies one hosted instance from the SRM's records and
// the pod's own flags.
func (n *Node) podState(name string, pr *podRec) podState {
	l := n.SRM.Kernel(name)
	switch {
	case l == nil:
		return psGone
	case l.KID == 0:
		return psSwapped
	case l.Main != nil && l.Main.Exec.Finished():
		if pr.pod.Done || pr.pod.AtHorizon {
			return psCompleted
		}
		return psFailed
	default:
		return psRunning
	}
}

// host records pr as the hosted instance name, inserting a new name
// into hostedOrder at its sorted position.
func (n *Node) host(name string, pr *podRec) {
	if _, ok := n.hosted[name]; !ok {
		i, _ := slices.BinarySearch(n.hostedOrder, name)
		n.hostedOrder = slices.Insert(n.hostedOrder, i, name)
	}
	n.hosted[name] = pr
}

// unhost forgets the hosted instance name.
func (n *Node) unhost(name string) {
	if i, ok := slices.BinarySearch(n.hostedOrder, name); ok {
		n.hostedOrder = slices.Delete(n.hostedOrder, i, i+1)
	}
	delete(n.hosted, name)
}

// beatBody builds the "beat" kind's workload: a deterministic compute
// loop counting heartbeats into the pod record. The closure travels
// with the thread's backing record, so a migrated or revived pod
// resumes its count — the pod's observable state lives outside the
// Cache Kernel, as the caching model prescribes.
func (n *Node) beatBody(pr *podRec) func(ak *aklib.AppKernel, e *hw.Exec) {
	p := pr.pod
	target := pr.spec.Beats
	beat := hw.CyclesFromMicros(pr.spec.BeatUS)
	horizon := n.cl.Cfg.Horizon
	return func(_ *aklib.AppKernel, me *hw.Exec) {
		for me.Now() < horizon {
			if target != 0 && p.Beats >= target {
				p.Done = true
				return
			}
			me.Charge(beat)
			p.Beats++
		}
		if target != 0 && p.Beats >= target {
			p.Done = true
			return
		}
		p.AtHorizon = true
	}
}
