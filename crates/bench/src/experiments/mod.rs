//! One module per paper experiment group.

pub mod ablation;
pub mod datasets;
pub mod durability;
pub mod end_to_end;
pub mod fanout;
pub mod fig6;
pub mod hotpath;
pub mod micro;
pub mod profile;
pub mod service;
pub mod sql;
pub mod table4;
pub mod tables;
