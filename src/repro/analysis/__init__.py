"""The paper's video-markup pipeline.

``diff`` compares frames under masks and pixel tolerance; ``suggester``
implements the semi-automatic candidate selection of §II-D (Fig. 7);
``annotation``/``annotator`` build the per-workload annotation database of
§II-A (Fig. 4 part A); ``online`` performs the fully automatic lag
detection of §II-E (Fig. 4 part B) as a tap on the capture's segment
stream; ``classify`` reproduces the input classification of Fig. 10.
"""

from repro.analysis.annotation import AnnotationDatabase, GestureInfo, LagAnnotation
from repro.analysis.annotator import AutoAnnotator
from repro.analysis.classify import InputClassification, classify_workload
from repro.analysis.diff import build_mask, diff_pixel_count, frames_equal
from repro.analysis.lagprofile import LagMeasurement, LagProfile
from repro.analysis.online import OnlineMatcher
from repro.analysis.suggester import Suggestion, SuggesterConfig, suggest

__all__ = [
    "AnnotationDatabase",
    "LagAnnotation",
    "GestureInfo",
    "AutoAnnotator",
    "InputClassification",
    "classify_workload",
    "build_mask",
    "diff_pixel_count",
    "frames_equal",
    "LagMeasurement",
    "LagProfile",
    "OnlineMatcher",
    "Suggestion",
    "SuggesterConfig",
    "suggest",
]
