"""Finite plots over topological spaces, gardens over frames, and the
harvest adjunction between them.

The package lifts box/diamond operators from transition structures onto
open-set lattices, grows and prunes flowers over covered frames, and
verifies the unit, naturality, and idempotency laws connecting the two
constructions, with a workspace file format, instance generators, and
brute-force oracles on top.
"""

from .lattice import (Filter, FiniteFrame, FrameMorphism,
                      check_frame_morphism, enumerate_filters, filter_images,
                      right_adjoint, validate_frame)
from .topology import (ContinuousMap, FiniteSpace, TopologyFrame,
                       continuity_witness, open_frame, set_name,
                       topology_frame, validate_space)
from .transition import NodeMap, TransitionStructure
from .plot import (NotLentile, Plot, PlotMap, PostconditionFailure,
                   classify_plot_map, compose_plot_maps, functor_G_arrow,
                   functor_G_object, identity_plot_map, lift_operators,
                   validate_plot)
from .garden import (Bed, Flower, Garden, GardenMorphism, bed_violations,
                     check_garden_morphism, compose_garden_morphisms,
                     flower_structure, functor_F_arrow, functor_F_report,
                     harvest, healthy_witness, identity_garden_morphism,
                     lift_report, point_filters, validate_garden)
from .adjunction import (algebraic_unit, check_naturality, geometric_unit,
                         unit_report, verify_idempotency)
from .workspace import (Workspace, instance_workspace, parse_workspace,
                        serialize_workspace)
from .generators import (Profile, ProfileUnsatisfiable, generate_instances,
                         parse_profile, random_garden, random_garden_morphism,
                         random_lentile_map, random_plot, random_space,
                         random_structure, shrink_instance)
from .oracles import (oracle_filters, oracle_flowers, oracle_harvest,
                      oracle_lens, oracle_records)
from .report import law_report, law_statement, merge_reports, render_records
from .cli import run_cli

__version__ = "0.1.0"
