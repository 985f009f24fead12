package core

import "sync"

// Param identifies a tunable mirroring parameter for set_adapt.
type Param uint8

// Adaptable parameters (paper Section 3.2.2).
const (
	// ParamMaxCoalesce is the maximum number of events coalesced
	// before mirroring.
	ParamMaxCoalesce Param = iota
	// ParamOverwriteLen scales every installed overwrite run length.
	ParamOverwriteLen
	// ParamChkptFreq is the checkpoint frequency in sent events.
	ParamChkptFreq
)

// String names the parameter.
func (p Param) String() string {
	switch p {
	case ParamMaxCoalesce:
		return "max-coalesce"
	case ParamOverwriteLen:
		return "overwrite-len"
	case ParamChkptFreq:
		return "chkpt-freq"
	default:
		return "param(?)"
	}
}

// DefaultCheckpointFreq is the paper's default: checkpoint once per 50
// processed events.
const DefaultCheckpointFreq = 50

// Params are the runtime-tunable knobs of the mirroring process
// (paper Section 3.2.1, parameters (1)-(5)).
type Params struct {
	// Coalesce selects whether events are mirrored independently or
	// multiple events are coalesced before mirroring.
	Coalesce bool
	// MaxCoalesce bounds the number of events coalesced into one.
	MaxCoalesce int
	// CheckpointFreq invokes the checkpoint procedure once per this
	// many mirrored events.
	CheckpointFreq int
}

// withDefaults fills unset fields.
func (p Params) withDefaults() Params {
	if p.MaxCoalesce <= 0 {
		p.MaxCoalesce = 1
	}
	if p.CheckpointFreq <= 0 {
		p.CheckpointFreq = DefaultCheckpointFreq
	}
	return p
}

// paramBox holds Params behind a mutex so the sending and control
// tasks see updates made through the API or by adaptation.
type paramBox struct {
	mu sync.Mutex
	p  Params
}

func newParamBox(p Params) *paramBox {
	return &paramBox{p: p.withDefaults()}
}

func (b *paramBox) get() Params {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.p
}

// update applies f to the current params atomically.
func (b *paramBox) update(f func(*Params)) {
	b.mu.Lock()
	f(&b.p)
	b.p = b.p.withDefaults()
	b.mu.Unlock()
}
