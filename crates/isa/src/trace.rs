use crate::Inst;

/// A source of dynamic instructions.
///
/// Both simulators consume traces through this trait so that workloads can
/// be generated on the fly (the synthetic workload generators implement it
/// directly) or replayed from memory or disk.
///
/// `TraceSource` is intentionally just a named, sealed-free refinement of
/// [`Iterator`] — anything that yields [`Inst`] records is a trace, so a
/// `Vec<Inst>` replays as `v.into_iter()` and a slice as
/// `s.iter().copied()`.
///
/// # Examples
///
/// ```
/// use mlp_isa::{Inst, TraceSource};
///
/// let insts = [Inst::nop(0x100), Inst::nop(0x104)];
/// let mut t = insts.iter().copied();
/// assert_eq!(t.next_inst().unwrap().pc, 0x100);
/// assert_eq!(t.next_inst().unwrap().pc, 0x104);
/// assert!(t.next_inst().is_none());
/// ```
pub trait TraceSource {
    /// Produces the next instruction of the dynamic stream, or `None` at
    /// end of trace.
    fn next_inst(&mut self) -> Option<Inst>;

    /// Skips `n` instructions (e.g. a warm-up prefix), returning how many
    /// were actually skipped.
    fn skip_insts(&mut self, n: usize) -> usize {
        for k in 0..n {
            if self.next_inst().is_none() {
                return k;
            }
        }
        n
    }
}

/// Every iterator of instructions is a trace source.
impl<I> TraceSource for I
where
    I: Iterator<Item = Inst>,
{
    fn next_inst(&mut self) -> Option<Inst> {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three() -> Vec<Inst> {
        vec![Inst::nop(0), Inst::nop(4), Inst::nop(8)]
    }

    #[test]
    fn skip_counts_actual() {
        let mut t = three().into_iter();
        assert_eq!(t.skip_insts(2), 2);
        assert_eq!(t.skip_insts(5), 1);
    }

    #[test]
    fn iterators_are_traces() {
        let v = three();
        let mut it = v.iter().copied();
        assert_eq!(TraceSource::next_inst(&mut it).unwrap().pc, 0);
        let dynamic: &mut dyn TraceSource = &mut it;
        assert_eq!(dynamic.next_inst().unwrap().pc, 4);
    }
}
