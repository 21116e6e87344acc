package fcache

// In-memory hot tier: a process-global, per-directory LRU of entry
// payloads with a byte budget, sitting in front of the disk cache. A
// long-lived service answering repeat queries pays a disk read (and a
// checksum pass) per artifact per run without it; with it, cache-warm
// reads are memory-speed. The tier is strictly a read-through/write-
// through copy of the disk cache: it is populated only from bytes that
// were just validated (a successful decode) or just written (a
// successful Put), it is keyed by the full entry Key (so version skew
// can never serve stale bytes), and hits hand out a private copy so no
// caller's zero-copy decode can alias another's.
//
// The tier is off by default — one-shot CLI runs keep their exact
// cold/warm counter semantics — and is enabled per directory by the
// characterization service via EnableHotTier before the first Open.

import (
	"sync"
)

// hotOverhead approximates the per-entry bookkeeping bytes charged
// against the budget on top of the payload itself.
const hotOverhead = 96

// hotEntry is one resident payload in the tier's LRU list.
type hotEntry struct {
	key        Key
	payload    []byte
	prev, next *hotEntry
}

// hotTier is one directory's in-memory payload LRU.
type hotTier struct {
	mu         sync.Mutex
	budget     int64
	total      int64
	entries    map[Key]*hotEntry
	head, tail *hotEntry // head is most recently used
}

// hotTiers maps cache directory -> *hotTier, process-global so every
// Cache handle on a directory shares one tier (and one budget).
var hotTiers sync.Map

// EnableHotTier installs an in-memory hot tier with the given byte
// budget in front of the disk cache rooted at dir. Open captures dir's
// tier, so the tier serves the Cache handles opened on dir afterwards;
// a handle opened before the first enable never uses it. Enabling is
// idempotent; re-enabling with a new budget resizes (and, if needed,
// evicts down to) the new budget, for every handle sharing the tier. A
// budget <= 0 removes the tier from later Opens; handles already open
// keep the tier they captured.
func EnableHotTier(dir string, budget int64) {
	if budget <= 0 {
		hotTiers.Delete(dir)
		return
	}
	t := &hotTier{budget: budget, entries: make(map[Key]*hotEntry)}
	if prev, loaded := hotTiers.LoadOrStore(dir, t); loaded {
		pt := prev.(*hotTier)
		pt.mu.Lock()
		pt.budget = budget
		pt.evictLocked(nil)
		pt.mu.Unlock()
	}
}

// hotFor returns dir's hot tier, or nil when none is enabled.
func hotFor(dir string) *hotTier {
	if t, ok := hotTiers.Load(dir); ok {
		return t.(*hotTier)
	}
	return nil
}

// unlink removes e from the LRU list.
func (t *hotTier) unlink(e *hotEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (t *hotTier) pushFront(e *hotEntry) {
	e.next = t.head
	if t.head != nil {
		t.head.prev = e
	}
	t.head = e
	if t.tail == nil {
		t.tail = e
	}
}

// get returns a private copy of the payload cached for k, if resident.
func (t *hotTier) get(k Key) ([]byte, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	e, ok := t.entries[k]
	if !ok {
		t.mu.Unlock()
		return nil, false
	}
	t.unlink(e)
	t.pushFront(e)
	p := append([]byte(nil), e.payload...)
	t.mu.Unlock()
	return p, true
}

// put stores a private copy of payload under k, evicting least recently
// used entries to fit the budget; a payload larger than the whole budget
// is not stored. Returns how many entries were evicted and the net byte
// delta, for the caller's counters.
func (t *hotTier) put(k Key, payload []byte) (evicted int, delta int64) {
	if t == nil {
		return 0, 0
	}
	size := int64(len(payload)) + hotOverhead
	t.mu.Lock()
	defer t.mu.Unlock()
	if size > t.budget {
		return 0, 0
	}
	before := t.total
	if e, ok := t.entries[k]; ok {
		t.total += int64(len(payload)) - int64(len(e.payload))
		e.payload = append([]byte(nil), payload...)
		t.unlink(e)
		t.pushFront(e)
	} else {
		e := &hotEntry{key: k, payload: append([]byte(nil), payload...)}
		t.entries[k] = e
		t.pushFront(e)
		t.total += size
	}
	evicted = t.evictLocked(t.entries[k])
	return evicted, t.total - before
}

// drop removes k from the tier (a corrupt or version-skewed disk entry
// was deleted; the tier must not outlive it).
func (t *hotTier) drop(k Key) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if e, ok := t.entries[k]; ok {
		t.unlink(e)
		delete(t.entries, k)
		t.total -= int64(len(e.payload)) + hotOverhead
	}
	t.mu.Unlock()
}

// evictLocked evicts LRU entries (sparing keep) until total <= budget.
// Caller holds t.mu.
func (t *hotTier) evictLocked(keep *hotEntry) int {
	evicted := 0
	for t.total > t.budget && t.tail != nil {
		victim := t.tail
		if victim == keep {
			if victim.prev == nil {
				break
			}
			victim = victim.prev
		}
		t.unlink(victim)
		delete(t.entries, victim.key)
		t.total -= int64(len(victim.payload)) + hotOverhead
		evicted++
	}
	return evicted
}

// bytes returns the tier's current resident byte total.
func (t *hotTier) bytes() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
