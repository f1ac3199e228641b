//! Compile-time `Send` assertions for the fleet's device ownership
//! model.
//!
//! The fleet shards complete devices across OS threads by move; that is
//! sound only while every layer of the stack stays `Send`. These
//! assertions fail `cargo test` at compile time if a future `Rc`, raw
//! pointer, or non-`Send` trait object sneaks into any of them — long
//! before the fleet bench would hit it at runtime.
//!
//! Workers also *share* the suite handle and the compiled suite (with
//! the install gate's memo inside it) across threads, so those two must
//! be `Send + Sync`.

use artemis_fleet::{DeviceSample, FleetDevice, FleetStats};
use artemis_ir::{CompiledSuite, MonitorSuite};
use artemis_monitor::{MonitorEngine, RemoteMonitorEngine};
use artemis_runtime::ArtemisRuntime;
use intermittent_sim::device::Device;

fn assert_send<T: Send>() {}

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn device_stack_is_send() {
    assert_send::<Device>();
    assert_send::<MonitorEngine>();
    assert_send::<RemoteMonitorEngine>();
    assert_send::<ArtemisRuntime>();
    assert_send::<ArtemisRuntime<RemoteMonitorEngine>>();
    assert_send::<FleetDevice>();
    assert_send::<DeviceSample>();
    assert_send::<FleetStats>();
}

#[test]
fn shared_suite_is_send_and_sync() {
    assert_send_sync::<MonitorSuite>();
    assert_send_sync::<CompiledSuite>();
}
