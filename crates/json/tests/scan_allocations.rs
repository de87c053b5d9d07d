//! `parse_projected` allocates for the pairs it returns and for
//! nothing else: however many fields a record has besides the
//! requested ones, and whatever they hold, the allocation count is
//! that of the requested fields alone.
//!
//! Counted with the counting allocator of `support/counting_alloc.rs`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use ciao_json::{parse, parse_projected};
use counting_alloc::allocations_of;

#[test]
fn skipped_fields_allocate_nothing() {
    // Everything the skip path can meet: long and escaped strings, an
    // escaped key, every number shape, literals, nested containers.
    let skipped = r#""name":"a string long enough to not be small","esc":"tab\there \"quoted\" é 😀","key":1,"nums":[0,-1,2.5,1e3,-4.25E-2,123456789012345678901234567890],"flags":[true,false,null],"address":{"street":"1 Main St","geo":{"lat":41.8,"lon":-87.6},"tags":["a","b",{"deep":[[[]]]}]},"empty":{},"none":[]"#;
    let narrow = r#"{"id":7,"score":2.5}"#;
    let wide = format!(r#"{{{skipped},"id":7,{skipped},"score":2.5,{skipped}}}"#);
    assert!(parse(&wide).is_ok());

    // Nothing requested: nothing allocated, on a record of any width.
    assert_eq!(
        allocations_of(|| drop(parse_projected(&wide, &[]).unwrap())),
        0
    );

    // Two scalar fields requested: the pairs vector and the two key
    // strings, whether or not the record has 60 other values.
    let on_narrow = allocations_of(|| drop(parse_projected(narrow, &["id", "score"]).unwrap()));
    let on_wide = allocations_of(|| drop(parse_projected(&wide, &["id", "score"]).unwrap()));
    assert_eq!(on_narrow, 3);
    assert_eq!(on_wide, on_narrow);

    // The oracle, for scale: it allocates per key, string and container.
    assert!(allocations_of(|| drop(parse(&wide).unwrap())) > 10 * on_wide);
}
