//! End-to-end guarantee behind the zero-skip removal in the GEMM kernel:
//! a fault-injected Inf must stay visible through downstream products,
//! even when the row of A multiplying it is all zeros (0·Inf = NaN).

use mkl_lite::{clear_fault_plan, install_fault_plan, sgemm, FaultKind, FaultPlan, FaultSite, Op};

#[test]
fn fault_plan_inf_visible_through_downstream_gemm() {
    let n = 3;
    let ident: Vec<f32> = (0..n * n).map(|i| if i % (n + 1) == 0 { 1.0 } else { 0.0 }).collect();
    let ones = vec![1.0f32; n * n];

    // Inject +Inf into the output of the next SGEMM, exactly as the
    // robustness harness does between propagation steps.
    install_fault_plan(
        FaultPlan::new(7).with_site(FaultSite::once(0, FaultKind::Inf).on_routine("SGEMM")),
    );
    let mut b = vec![0.0f32; n * n];
    sgemm(Op::None, Op::None, n, n, n, 1.0, &ident, n, &ones, n, 0.0, &mut b, n);
    clear_fault_plan();
    assert!(b.iter().any(|x| x.is_infinite()), "fault plan did not fire");

    // Feed the corrupted matrix into a downstream product whose A has an
    // all-zero row. Every output row must carry Inf (nonzero rows) or NaN
    // (the zero row, via 0·Inf) — nothing may launder the fault away.
    let mut a = vec![1.0f32; n * n];
    for v in &mut a[..n] {
        *v = 0.0;
    }
    let mut c = vec![0.0f32; n * n];
    sgemm(Op::None, Op::None, n, n, n, 1.0, &a, n, &b, n, 0.0, &mut c, n);
    for i in 0..n {
        assert!(
            c[i * n..(i + 1) * n].iter().any(|x| !x.is_finite()),
            "row {i} lost the injected Inf: {c:?}"
        );
    }
}
