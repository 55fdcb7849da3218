//! Inference over a learned MRSL model: the strategies of the paper's
//! inference ensemble behind one trait ([`engine`]), the cores they run
//! ([`single`] voting, the [`gibbs`] chain, the tuple [`dag`] schedule and
//! the [`independent`] baseline), and the [`batch`] executor every
//! engine's workload runs through, seeded by workload position.

pub mod batch;
pub mod dag;
pub mod engine;
pub mod gibbs;
pub mod independent;
pub mod single;
