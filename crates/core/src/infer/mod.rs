//! Inference over a learned MRSL model: the strategies of the paper's
//! inference ensemble behind one trait ([`engine`]), the cores they run
//! ([`single`] voting, the [`gibbs`] chain, the tuple [`dag`] schedule and
//! the [`independent`] baseline), and the parallel [`batch`] layer that
//! fans any engine out with deterministic per-tuple seeding.

pub mod batch;
pub mod dag;
pub mod engine;
pub mod gibbs;
pub mod independent;
pub mod single;
