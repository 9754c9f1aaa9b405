package coloring

import (
	"fmt"

	"bitcolor/internal/graph"
)

// shardLayout resolves how a sharded run is laid out: the BCSR v3 handle
// it streams from (nil in core), its shard count, and how many shards it
// holds resident at once. In core that is opts.Shards clamped to
// [1, n] with every shard resident. Streamed, the file's partition fixes
// the shard count and MaxResidentShards bounds the residency (<=0: one
// shard at a time; never more than the file's shards). The executor and
// the registry's pool Demand/Grant all size a run through here.
func shardLayout(opts Options, n int) (sf *graph.ShardedFile, shards, resident int) {
	if !opts.OutOfCore || opts.ShardFile == nil {
		shards = clampShards(opts.Shards, n)
		return nil, shards, shards
	}
	sf = opts.ShardFile
	shards = sf.Shards()
	resident = max(1, opts.MaxResidentShards)
	if shards > 0 && resident > shards {
		resident = shards
	}
	return sf, shards, resident
}

// VerifySharded is Verify streamed through a BCSR v3 handle: every
// vertex colored, no adjacent pair sharing a color, checked one shard
// mapping at a time (each shard's section holds the full global
// adjacency of its vertices, so the sweep covers every directed entry
// without materializing the CSR).
func VerifySharded(sf *graph.ShardedFile, colors []uint16) error {
	n := sf.NumVertices()
	if len(colors) != n {
		return fmt.Errorf("coloring: %d colors for %d vertices", len(colors), n)
	}
	for shard := 0; shard < sf.Shards(); shard++ {
		sm, err := sf.MapShard(shard)
		if err != nil {
			return err
		}
		for i, v := range sm.VMap {
			cv := colors[v]
			if cv == 0 {
				sm.Close()
				return fmt.Errorf("coloring: vertex %d uncolored", v)
			}
			for _, w := range sm.Neighbors(i) {
				if colors[w] == cv {
					sm.Close()
					return fmt.Errorf("coloring: adjacent vertices %d and %d share color %d", v, w, cv)
				}
			}
		}
		if err := sm.Close(); err != nil {
			return err
		}
	}
	return nil
}
