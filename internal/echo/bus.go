package echo

import "sync"

// Bus is a process-local registry of named channels. A site creates
// one Bus and opens its data and control channels on it; the TCP
// server exports a Bus's channels to remote sites.
type Bus struct {
	mu       sync.Mutex
	channels map[string]*LocalChannel
	closed   bool
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{channels: make(map[string]*LocalChannel)}
}

// Open returns the channel with the given name, creating it if needed.
func (b *Bus) Open(name string) (*LocalChannel, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if c, ok := b.channels[name]; ok {
		return c, nil
	}
	c := NewLocal(name)
	b.channels[name] = c
	return c, nil
}

// Close closes every channel on the bus.
func (b *Bus) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	chans := make([]*LocalChannel, 0, len(b.channels))
	for _, c := range b.channels {
		chans = append(chans, c)
	}
	b.mu.Unlock()
	for _, c := range chans {
		_ = c.Close()
	}
	return nil
}
