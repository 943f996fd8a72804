//! The common final stage of every code-injection attack (Figure 4):
//! once the poison is deposited and `destructor_arg` points at it, let
//! the CPU free the skb and observe the outcome.

use crate::cpu::{CpuOutcome, MiniCpu};
use dma_core::vuln::AttackOutcome;
use dma_core::SimCtx;
use sim_mem::MemorySystem;
use sim_net::skb::PendingCallback;

/// Fires a pending callback on the CPU model and classifies the result
/// (Figure 4 step (d)).
pub fn fire(
    cpu: &MiniCpu<'_>,
    ctx: &mut SimCtx,
    mem: &MemorySystem,
    pending: PendingCallback,
    steps: usize,
) -> AttackOutcome {
    match cpu.invoke_callback(ctx, mem, pending.callback, pending.arg) {
        Ok(CpuOutcome {
            escalated: true, ..
        }) => AttackOutcome::CodeExecution {
            hijacked_callback: pending.callback,
            steps,
        },
        Ok(_) => AttackOutcome::Blocked("callback ran but did not escalate"),
        Err(_) => AttackOutcome::Blocked("CPU faulted on hijacked callback (oops, not pwn)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::KernelImage;
    use crate::rop::PoisonedBuffer;
    use dma_core::Kva;
    use sim_mem::MemConfig;

    #[test]
    fn fire_classifies_all_three_outcomes() {
        let mut ctx = SimCtx::new();
        let mut mem = MemorySystem::new(&MemConfig::default());
        let image = KernelImage::build(1, 16 << 20);
        mem.install_text(&image.bytes);
        let cpu = MiniCpu::new(&image, mem.layout.text_base);

        // 1. A benign callback: ran, did not escalate.
        let benign = image
            .symbol_addr("sock_zerocopy_callback", mem.layout.text_base)
            .unwrap();
        let out = fire(
            &cpu,
            &mut ctx,
            &mem,
            PendingCallback {
                callback: benign,
                arg: Kva(0x100),
            },
            1,
        );
        assert_eq!(
            out,
            AttackOutcome::Blocked("callback ran but did not escalate")
        );

        // 2. A data-pointer callback: NX fault → oops, not pwn.
        let data = mem.kzalloc(&mut ctx, 64, "d").unwrap();
        let out = fire(
            &cpu,
            &mut ctx,
            &mem,
            PendingCallback {
                callback: data,
                arg: data,
            },
            1,
        );
        assert_eq!(
            out,
            AttackOutcome::Blocked("CPU faulted on hijacked callback (oops, not pwn)")
        );

        // 3. The real thing: pivot + chain → code execution.
        let knowledge = crate::kaslr::AttackerKnowledge {
            text_base: Some(mem.layout.text_base),
            page_offset_base: Some(mem.layout.page_offset_base),
            vmemmap_base: Some(mem.layout.vmemmap_base),
        };
        let poison = PoisonedBuffer::build(&image, &knowledge).unwrap();
        let buf = mem.kzalloc(&mut ctx, 512, "payload").unwrap();
        mem.cpu_write(&mut ctx, buf, &poison.bytes, "t").unwrap();
        let jop = image
            .symbol_addr("jop_rsp_rdi", mem.layout.text_base)
            .unwrap();
        let out = fire(
            &cpu,
            &mut ctx,
            &mem,
            PendingCallback {
                callback: jop,
                arg: buf,
            },
            3,
        );
        assert_eq!(
            out,
            AttackOutcome::CodeExecution {
                hijacked_callback: jop,
                steps: 3
            }
        );
    }
}
