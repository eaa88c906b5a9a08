//! Freeing an object gives back its own bytes and no one else's: the
//! allocator is byte-granular, so objects that are not page multiples
//! share pages with their neighbours.

use tahoe_hms::{presets, Hms, HmsConfig, TierId};
use tahoe_realmem::RealBackend;

#[test]
fn moving_an_object_keeps_the_bytes_of_the_objects_sharing_its_pages() {
    let config = HmsConfig::new(presets::dram(1 << 20), presets::optane_pmm(1 << 22), 5.0)
        .expect("valid config");
    let mut hms = Hms::new(config.clone());
    hms.set_backend(Box::new(RealBackend::new(&config).expect("arenas map")));
    let ids: Vec<_> = (0..3)
        .map(|i| {
            hms.alloc_object(&format!("o{i}"), 5000, TierId(1), false)
                .expect("NVM has room")
        })
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        hms.object_bytes(id)
            .unwrap()
            .expect("real bytes")
            .fill(i as u8 + 1);
    }
    // The middle object's source range starts and ends inside pages
    // its neighbours hold.
    hms.move_object(ids[1], TierId(0)).expect("DRAM has room");
    for (i, &id) in ids.iter().enumerate() {
        let bytes = hms.object_bytes(id).unwrap().expect("real bytes");
        let wrong = bytes.iter().filter(|&&b| b != i as u8 + 1).count();
        assert_eq!(wrong, 0, "object {i}: {wrong} of its 5000 bytes changed");
    }
}
