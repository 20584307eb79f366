package logs

import (
	"os"
	"os/exec"
	"runtime/debug"
	"testing"
)

// leStackChildEnv marks the child process of TestLeDeepSpineStack.
const leStackChildEnv = "LOGS_LE_STACK_CHILD"

// TestLeDeepSpineStack pins Le's stack depth to the left log: deciding a
// small claim against a long spine must not grow the stack with the
// spine. A goroutine stack overflow is a fatal error, not a panic, so the
// check runs in a child process under a 1 MiB stack cap — tiny next to
// the 64k-action spine it walks — and the parent reports how the child
// ended.
func TestLeDeepSpineStack(t *testing.T) {
	if os.Getenv(leStackChildEnv) == "1" {
		leDeepSpine(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestLeDeepSpineStack$", "-test.count=1")
	cmd.Env = append(os.Environ(), leStackChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		if len(out) > 2048 {
			out = out[:2048]
		}
		t.Fatalf("Le on a deep spine under a 1 MiB stack: %v\n%s", err, out)
	}
}

func leDeepSpine(t *testing.T) {
	const n = 1 << 16
	debug.SetMaxStack(1 << 20)
	b := NewBuilder()
	b.Append(snd("a", "m", "v")) // the oldest action: the only match
	filler := rcv("b", "k", "w")
	for b.Len() < n {
		b.Append(filler)
	}
	spine := b.Log()
	genuine := Prefix(SndAct("a", VarT("x"), NameT("v")), Nil())
	if !Le(genuine, spine) {
		t.Error("a claim matching the oldest action must be justified")
	}
	forged := Prefix(SndAct("c", VarT("x"), NameT("v")), Nil())
	if Le(forged, spine) {
		t.Error("a claim naming a principal absent from the spine must fail")
	}
}
