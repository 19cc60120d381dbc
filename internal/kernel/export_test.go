package kernel

// ScanVictim is the pager's eviction rule written as the scan over
// every registered page that the LRU list replaced: the
// (lastUse, seq)-minimal unpinned resident page. It is the reference
// Victim must agree with.
func (k *Kernel) ScanVictim() (ctx int, va uint64, ok bool) {
	var vk pagerKey
	var victim *pagerPage
	for key, pg := range k.pager.pages {
		if !pg.resident || pg.pinned > 0 {
			continue
		}
		if victim == nil || pg.lastUse < victim.lastUse ||
			(pg.lastUse == victim.lastUse && pg.seq < victim.seq) {
			vk, victim = key, pg
		}
	}
	return vk.ctx, vk.va, victim != nil
}

// Victim returns the page the pager's next eviction takes.
func (k *Kernel) Victim() (ctx int, va uint64, ok bool) {
	pg := k.victim()
	if pg == nil {
		return 0, 0, false
	}
	return pg.key.ctx, pg.key.va, true
}
