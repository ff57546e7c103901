"""Branch prediction substrate.

Direction predictors (bimodal, gshare, local two-level, tournament,
perceptron, static, perfect) share the :class:`DirectionPredictor`
interface; :class:`BranchTargetBuffer` covers target prediction. :class:`BranchUnit` bundles a direction
predictor with a BTB into the single object the pipeline's structural
annotator consults per control-flow instruction.
"""

from repro.frontend.base import BranchUnit, DirectionPredictor, PredictorStats
from repro.frontend.static import StaticPredictor
from repro.frontend.bimodal import BimodalPredictor, SaturatingCounter
from repro.frontend.gshare import GSharePredictor
from repro.frontend.local import LocalPredictor
from repro.frontend.tournament import TournamentPredictor
from repro.frontend.perceptron import PerceptronPredictor
from repro.frontend.tage import TAGEPredictor
from repro.frontend.perfect import PerfectPredictor
from repro.frontend.btb import BranchTargetBuffer

__all__ = [
    "BranchUnit",
    "DirectionPredictor",
    "PredictorStats",
    "StaticPredictor",
    "BimodalPredictor",
    "SaturatingCounter",
    "GSharePredictor",
    "LocalPredictor",
    "TournamentPredictor",
    "PerceptronPredictor",
    "TAGEPredictor",
    "PerfectPredictor",
    "BranchTargetBuffer",
]
