//go:build go1.23

package sim

import "iter"

// startCoro binds co's body to a runtime coroutine: iter.Pull switches
// between Run and the body directly, never through the Go scheduler.
// A finished body leaves the engine's tracked set; a panic in it is
// re-raised by next in Run's caller.
func (e *Engine) startCoro(co *Coro) {
	co.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		co.ctx.suspend = yield
		co.fn(&co.ctx)
		co.done = true
		co.runnable = false
		e.removeCoro(co)
	})
}
