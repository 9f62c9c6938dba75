package core

// Library mimics the real one: everything outside segment.go must go
// through the segment accessors.
type Library struct {
	Engine
	seg *segment
}

// BucketCount goes through the accessor and must pass.
func (l *Library) BucketCount() int { return l.seg.numBuckets() }

// FirstRow goes through the accessor and must pass.
func (l *Library) FirstRow() []uint64 { return l.seg.arenaRow(0) }

// RawBuckets reaches the bkts slice directly — flagged.
func (l *Library) RawBuckets() int {
	return len(l.seg.bkts)
}

// RawArena reslices the arena directly — flagged.
func (l *Library) RawArena() []uint64 {
	return l.seg.arena[:0]
}

// MasterAlias hands out the engine's master list itself — flagged.
func (l *Library) MasterAlias() []*segment {
	return l.sealedSegs
}

// ActiveMembers reads the engine's reference list directly — flagged.
func (l *Library) ActiveMembers() int {
	return len(l.active.members)
}

// Suppressed documents a deliberate exception; it must not be reported.
func (l *Library) Suppressed() int {
	//lint:ignore snapshotsafety fixture exercises the suppression path
	return len(l.seg.arena)
}
