"""Planner and deterministic simulator for collaborative Transformer training
across trusted pools of wirelessly connected edge devices."""

from .devices import (DEFAULT_FAULT_MODEL, DeviceProfile, FaultModel, Link,
                      NetworkModel, TrustedDomain, busy_power,
                      effective_throughput, jetson_nano, jetson_nx, jetson_tx2,
                      testbed_preset)
from .parallelism import (CommPhase, ParallelPlan, PlanError, check_memory,
                          comm_template, make_dp_plan, make_plan, make_pp_plan,
                          make_single_plan, make_sp_plan, make_tp_plan)
from .scheduler import (InfeasibleError, Objective, OrchestrationStrategy,
                        arrange_topology, choose_parallelism, orchestrate,
                        partition_stages, plan_checkpointing, select_devices,
                        young_checkpoint_interval)
from .simengine import (FaultReport, SimulationResult, collective_time,
                        inject_faults, simulate)
from .workload import (MODEL_PRESETS, TrainingJob, TransformerSpec,
                       activation_bytes_per_block, default_edge_job,
                       flops_per_iteration, full_replication_memory,
                       model_preset, param_count, state_bytes)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
