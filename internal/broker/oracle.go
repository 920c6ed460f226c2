package broker

// Read-only oracle accessors. Chaos and differential tests fingerprint a
// broker's routing state — which entries it holds, and which it would
// advertise on each link — and compare the fingerprints against a freshly
// built reference overlay. These mirror the selection logic of SyncFrames
// without encoding frames or touching counters, so observing the state
// never perturbs the traffic accounting under test.

// EntryIDs returns the broker's routing entries, split into locally
// originated and remotely learned, each in ascending ID order.
func (b *Broker) EntryIDs() (local, remote []uint64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for i := range b.recs {
		r := &b.recs[i]
		switch {
		case r.original == nil:
		case r.origin == LocalLink:
			local = append(local, r.id)
		default:
			remote = append(remote, r.id)
		}
	}
	sortIDs(local)
	sortIDs(remote)
	return local, remote
}

// AdvertisedIDs returns, in ascending order, the IDs of the entries this
// broker currently advertises on link to — exactly the set SyncFrames
// would replay to a neighbor (re)attaching there: every entry not
// originated on that link, minus (with the covering plane on) covered
// entries whose cover is advertised on the same link.
func (b *Broker) AdvertisedIDs(to LinkID) ([]uint64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.checkLink(to); err != nil {
		return nil, err
	}
	subs := b.advertisedTo(to)
	ids := make([]uint64, len(subs))
	for i, s := range subs {
		ids[i] = s.ID
	}
	return ids, nil
}
