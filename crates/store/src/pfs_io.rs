//! Routing store streams through the PFS model.
//!
//! A chunked stream maps naturally onto object placement: the manifest
//! lands on the first OST, every *object* is round-robined across the
//! targets (see [`PfsSim::write_chunks`]). For an unsharded store the
//! objects are the chunks themselves; a sharded (v3) store places whole
//! `EBSH` shards instead — far fewer, larger objects, which is the
//! point of sharding at scale. Partial reads then pay I/O only for the
//! byte ranges a region actually touches: bare chunk payloads when
//! unsharded, touched slots plus each touched shard's inner index when
//! sharded.

use crate::grid::Region;
use crate::store::ChunkedStore;
use eblcio_energy::CpuProfile;
use eblcio_pfs::{IoMeasurement, PfsSim};
use std::collections::BTreeMap;

/// Simulates writing a chunked stream with its placement objects
/// (chunks, or shards when sharded) striped across the file system's
/// OSTs (manifest charged as metadata).
pub fn write_store(
    pfs: &PfsSim,
    store: &ChunkedStore,
    efficiency: f64,
    writers: u32,
    profile: &CpuProfile,
) -> IoMeasurement {
    pfs.write_chunks(
        &store.object_lens(),
        store.manifest_len() as u64,
        efficiency,
        writers,
        profile,
    )
}

/// Simulates reading back exactly the bytes a region read touches
/// (manifest re-read included — a reader must parse the index first).
/// Each touched object keeps its write-time placement index, so the
/// read lands on the OSTs the round-robin actually placed it on. For a
/// sharded store a touched shard is charged its inner index once plus
/// the touched slots' payloads — ranged reads within one object, not
/// the whole shard.
pub fn read_region_io(
    pfs: &PfsSim,
    store: &ChunkedStore,
    region: &Region,
    efficiency: f64,
    readers: u32,
    profile: &CpuProfile,
) -> IoMeasurement {
    let lens = store.chunk_lens();
    let hits = store.grid().chunks_intersecting(region);
    let touched: Vec<(usize, u64)> = match store.sharding() {
        None => hits.into_iter().map(|i| (i, lens[i])).collect(),
        Some(table) => {
            // Aggregate per touched shard: slots' bytes + index once.
            let mut per_shard: BTreeMap<usize, u64> = BTreeMap::new();
            for i in hits {
                let s = table.chunk_slots[i].shard as usize;
                *per_shard.entry(s).or_insert(table.index_lens[s]) += lens[i];
            }
            per_shard.into_iter().collect()
        }
    };
    pfs.read_chunks(
        &touched,
        store.manifest_len() as u64,
        efficiency,
        readers,
        profile,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblcio_codec::{CompressorId, ErrorBound};
    use eblcio_data::{NdArray, Shape};
    use eblcio_energy::CpuGeneration;

    fn store_stream() -> Vec<u8> {
        let data = NdArray::<f32>::from_fn(Shape::d3(32, 16, 16), |i| {
            ((i[0] + i[1]) as f32 * 0.1).sin() * 10.0 + i[2] as f32
        });
        let codec = CompressorId::Szx.instance();
        ChunkedStore::write(
            codec.as_ref(),
            &data,
            ErrorBound::Relative(1e-3),
            Shape::d3(8, 16, 16),
            2,
        )
        .unwrap()
    }

    #[test]
    fn sharded_region_read_pays_slots_and_index_not_whole_shards() {
        let data = NdArray::<f32>::from_fn(Shape::d3(32, 16, 16), |i| {
            ((i[0] + i[1]) as f32 * 0.1).sin() * 10.0 + i[2] as f32
        });
        let codec = CompressorId::Szx.instance();
        let stream = ChunkedStore::write_sharded(
            codec.as_ref(),
            &data,
            ErrorBound::Relative(1e-3),
            Shape::d3(8, 16, 16),
            2,
            2,
        )
        .unwrap();
        let store = ChunkedStore::open(&stream).unwrap();
        let pfs = PfsSim::testbed();
        let profile = CpuGeneration::Skylake8160.profile();
        // Writing places shard objects (2 shards), not 4 chunk objects.
        assert_eq!(store.object_lens().len(), 2);
        let w = write_store(&pfs, &store, 0.9, 1, &profile);
        // Reading one slab touches one chunk = one slot of one shard:
        // cheaper than the full write, and cheaper than reading both
        // slots of that shard would be.
        let one_slab = Region::new(&[0, 0, 0], &[8, 16, 16]);
        let r = read_region_io(&pfs, &store, &one_slab, 0.9, 1, &profile);
        assert!(r.storage_energy.value() < w.storage_energy.value());
        let two_slabs = Region::new(&[0, 0, 0], &[16, 16, 16]);
        let r2 = read_region_io(&pfs, &store, &two_slabs, 0.9, 1, &profile);
        assert!(r.storage_energy.value() < r2.storage_energy.value());
    }

    #[test]
    fn region_read_io_is_cheaper_than_full_write() {
        let stream = store_stream();
        let store = ChunkedStore::open(&stream).unwrap();
        let pfs = PfsSim::testbed();
        let profile = CpuGeneration::Skylake8160.profile();
        let w = write_store(&pfs, &store, 0.9, 1, &profile);
        let one_slab = Region::new(&[0, 0, 0], &[8, 16, 16]);
        let r = read_region_io(&pfs, &store, &one_slab, 0.9, 1, &profile);
        assert!(r.storage_energy.value() < w.storage_energy.value());
        assert!(r.seconds.value() < w.seconds.value());
    }
}
