"""2-D Delaunay meshing substrate for DMR.

Exact-fallback geometric predicates (:mod:`.geometry`), the paper's
array-based triangle mesh layout (:mod:`.mesh`), point-location /
cavity / retriangulation primitives (:mod:`.cavity`), an incremental
Bowyer-Watson triangulator (:mod:`.triangulation`), random input mesh
generation (:mod:`.generate`) and Triangle-compatible I/O (:mod:`.io`).
"""

from .mesh import TriMesh
from .triangulation import build_delaunay, morton_order
from .generate import random_mesh, random_points_mesh
from .cavity import (CavityInfo, Fans, Located, cavity_boundary,
                     delaunay_cavity, locate, retriangulate, retriangulate_one)
from .gpu_insert import InsertResult, gpu_insert_points
from .edgeflip import (FlipResult, find_nondelaunay_edges, flip_edge,
                       legalize_gpu, random_legal_flips)
from .stats import MeshQuality, angle_histogram, quality_report
from .svg import mesh_to_svg, save_svg
from . import geometry
from . import io

__all__ = [
    "TriMesh", "build_delaunay", "morton_order", "random_mesh",
    "random_points_mesh", "CavityInfo", "Located", "cavity_boundary",
    "delaunay_cavity", "locate", "retriangulate", "retriangulate_one",
    "Fans", "geometry", "io",
    "InsertResult", "gpu_insert_points",
    "FlipResult", "find_nondelaunay_edges", "flip_edge", "legalize_gpu",
    "random_legal_flips", "MeshQuality", "angle_histogram",
    "quality_report", "mesh_to_svg", "save_svg",
]
